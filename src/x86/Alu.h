//===- x86/Alu.h - Concrete x86 ALU semantics -------------------*- C++ -*-===//
///
/// \file
/// What an x86 ALU instruction computes over concrete operands: its result
/// and the six status flags. The opcode table says which flags an
/// instruction defines; this kernel says which values they take. The
/// emulator executes through it, the symbolic evaluator folds constants
/// through it and CONSTFOLD folds instructions through it, so the simulator
/// that scores a rewrite and the validator that proves it agree by
/// construction.
///
/// Operations take their operand width in bits (8, 16, 32 or 64) and return
/// values truncated to it, with all six flags. Where the ISA leaves a flag
/// undefined the kernel still writes a deterministic value derived from the
/// operands, because the table declares those flags defined (DESIGN.md,
/// "MaoCheck": undefined-flag modeling).
///
/// The emulator's hot loop runs through this header, so every function is
/// forced inline (GCC declines to inline them into the emulator's large
/// dispatch switch on its own) and derives its masks from one sign bit.
///
//===----------------------------------------------------------------------===//

#ifndef MAO_X86_ALU_H
#define MAO_X86_ALU_H

#include "x86/Opcodes.h"
#include "x86/X86Defs.h"

#include <bit>
#include <cstdint>
#include <optional>

#define MAO_ALU_INLINE [[gnu::always_inline]] inline

namespace mao::alu {

//===----------------------------------------------------------------------===//
// Widths, signs, parity and float bits
//===----------------------------------------------------------------------===//

/// Operand width in bits; Width::None is 64, the convention for width-less
/// instructions.
MAO_ALU_INLINE unsigned bitsOf(Width W) {
  static constexpr uint8_t Bits[] = {64, 8, 16, 32, 64};
  return Bits[static_cast<unsigned>(W)];
}

/// Value mask of an operand width (None is 64-bit).
MAO_ALU_INLINE uint64_t mask(Width W) {
  static constexpr uint64_t Masks[] = {~0ULL, 0xffULL, 0xffffULL,
                                       0xffffffffULL, ~0ULL};
  return Masks[static_cast<unsigned>(W)];
}

/// The low \p Bits bits set, for any \p Bits in [0, 64].
MAO_ALU_INLINE uint64_t mask(unsigned Bits) {
  return Bits ? ~0ULL >> (64 - Bits) : 0;
}

/// The sign bit of a \p Bits-wide value; the width's mask is twice it,
/// less one. \p Bits is in [1, 64] here and below.
MAO_ALU_INLINE uint64_t signMask(unsigned Bits) { return 1ULL << (Bits - 1); }

MAO_ALU_INLINE bool signBit(uint64_t V, unsigned Bits) {
  return (V & signMask(Bits)) != 0;
}

/// The low \p Bits bits of \p V as a signed value.
MAO_ALU_INLINE int64_t signExtend(uint64_t V, unsigned Bits) {
  const uint64_t Sign = signMask(Bits);
  return static_cast<int64_t>(((V & ((Sign << 1) - 1)) ^ Sign) - Sign);
}

/// PF: the low byte has an even number of set bits. Folds the byte to a
/// nibble and looks its parity up in the constant 0x6996, where
/// std::popcount would be a library call on a target without POPCNT.
MAO_ALU_INLINE bool evenParity(uint64_t V) {
  return !((0x6996u >> ((V ^ (V >> 4)) & 0xf)) & 1);
}

/// The scalar in the low 32 or 64 bits of an XMM register, and back.
MAO_ALU_INLINE float f32(uint64_t Bits) {
  return std::bit_cast<float>(static_cast<uint32_t>(Bits));
}
MAO_ALU_INLINE double f64(uint64_t Bits) { return std::bit_cast<double>(Bits); }
MAO_ALU_INLINE uint64_t bits(float F) { return std::bit_cast<uint32_t>(F); }
MAO_ALU_INLINE uint64_t bits(double D) { return std::bit_cast<uint64_t>(D); }

//===----------------------------------------------------------------------===//
// Operations
//===----------------------------------------------------------------------===//

/// The six status flags as a FlagBit set: one byte, so that results stay
/// in registers through the emulator's hot loop.
using Flags = uint8_t;

/// Flags whose ZF, SF and PF come from the width-truncated result \p R of
/// sign bit \p Sign.
MAO_ALU_INLINE Flags flagsOf(uint64_t R, uint64_t Sign, bool CF, bool OF,
                             bool AF = false) {
  return static_cast<Flags>(CF * FlagCF | evenParity(R) * FlagPF |
                            AF * FlagAF | (R == 0) * FlagZF |
                            ((R & Sign) != 0) * FlagSF | OF * FlagOF);
}

/// A width-truncated result and its flags.
struct Result {
  uint64_t Value;
  Flags F;
  /// False when x86 leaves every flag unchanged: a shift by zero, a rotate
  /// by a multiple of the width.
  bool SetsFlags = true;
};

/// The double-width results: high:low product (MUL, IMUL) or
/// remainder:quotient (DIV, IDIV), each truncated to the width.
struct WideResult {
  uint64_t Lo, Hi;
  Flags F;
};

/// ADD (ADC with \p Carry, INC of 1 whose caller keeps CF).
MAO_ALU_INLINE Result add(uint64_t A, uint64_t B, bool Carry, unsigned Bits) {
  const uint64_t Sign = signMask(Bits), M = (Sign << 1) - 1;
  A &= M;
  B &= M;
  const uint64_t R = (A + B + Carry) & M;
  const bool CF = R < A || (Carry && R == A && B == M);
  // Overflow: operands of one sign, result of the other.
  const bool OF = (~(A ^ B) & (A ^ R) & Sign) != 0;
  return {R, flagsOf(R, Sign, CF, OF, ((A ^ B ^ R) >> 4) & 1)};
}

/// SUB and CMP (SBB with \p Borrow, NEG as 0 - B, DEC of 1 whose caller
/// keeps CF).
MAO_ALU_INLINE Result sub(uint64_t A, uint64_t B, bool Borrow, unsigned Bits) {
  const uint64_t Sign = signMask(Bits), M = (Sign << 1) - 1;
  A &= M;
  B &= M;
  const uint64_t R = (A - B - Borrow) & M;
  const bool CF = A < B + Borrow || (Borrow && B == M);
  // Overflow: operands of different signs, result of the subtrahend's.
  const bool OF = ((A ^ B) & (A ^ R) & Sign) != 0;
  return {R, flagsOf(R, Sign, CF, OF, ((A ^ B ^ R) >> 4) & 1)};
}

/// AND, OR, XOR and TEST of result \p R: CF, OF and AF clear (AF is
/// undefined on x86).
MAO_ALU_INLINE Result logic(uint64_t R, unsigned Bits) {
  const uint64_t Sign = signMask(Bits);
  R &= (Sign << 1) - 1;
  return {R, flagsOf(R, Sign, false, false)};
}

/// The two-operand ALU group on destination \p A and source \p B, with
/// \p CF the carry of ADC and the borrow of SBB. CMP yields SUB's result for
/// its caller to discard. nullopt for any other mnemonic.
MAO_ALU_INLINE std::optional<Result> binary(Mnemonic Mn, uint64_t A,
                                            uint64_t B, bool CF,
                                            unsigned Bits) {
  switch (Mn) {
  case Mnemonic::ADD:
    return add(A, B, false, Bits);
  case Mnemonic::ADC:
    return add(A, B, CF, Bits);
  case Mnemonic::SUB:
  case Mnemonic::CMP:
    return sub(A, B, false, Bits);
  case Mnemonic::SBB:
    return sub(A, B, CF, Bits);
  case Mnemonic::AND:
    return logic(A & B, Bits);
  case Mnemonic::OR:
    return logic(A | B, Bits);
  case Mnemonic::XOR:
    return logic(A ^ B, Bits);
  default:
    return std::nullopt;
  }
}

/// SHL, SHR, SAR, ROL and ROR of \p V by \p Count, which the caller has
/// masked to 5 bits (6 for 64-bit operands); rotates reduce it modulo the
/// width. OF is defined for 1-bit counts only and AF never; the kernel
/// writes OF by the 1-bit rule for every count and AF = 0. Rotates, which
/// leave SF/ZF/PF alone on x86, write them from the result too. nullopt
/// for any other mnemonic.
MAO_ALU_INLINE std::optional<Result> shift(Mnemonic Mn, uint64_t V,
                                           unsigned Count, unsigned Bits) {
  const uint64_t Sign = signMask(Bits), M = (Sign << 1) - 1;
  V &= M;
  uint64_t R;
  bool CF, OF;
  switch (Mn) {
  case Mnemonic::SHL:
    R = (V << Count) & M;
    CF = Count && Count <= Bits && ((V >> (Bits - Count)) & 1);
    OF = ((R & Sign) != 0) != CF;
    break;
  case Mnemonic::SHR:
    R = V >> Count;
    CF = Count && ((V >> (Count - 1)) & 1);
    OF = (V & Sign) != 0;
    break;
  case Mnemonic::SAR: {
    const int64_t S = signExtend(V, Bits);
    R = static_cast<uint64_t>(S >> Count) & M;
    CF = Count && ((S >> (Count - 1)) & 1);
    OF = false;
    break;
  }
  case Mnemonic::ROL:
  case Mnemonic::ROR:
    Count %= Bits;
    if (Count == 0)
      return Result{V, 0, false};
    if (Mn == Mnemonic::ROL) {
      R = ((V << Count) | (V >> (Bits - Count))) & M;
      CF = R & 1;
      OF = ((R & Sign) != 0) != CF;
    } else {
      R = ((V >> Count) | (V << (Bits - Count))) & M;
      CF = (R & Sign) != 0;
      OF = CF != ((R & (Sign >> 1)) != 0);
    }
    break;
  default:
    return std::nullopt;
  }
  return Result{R, flagsOf(R, Sign, CF, OF), Count != 0};
}

/// MUL: CF = OF = a nonzero high half. SF/ZF/PF/AF are undefined; the
/// kernel writes SF/ZF/PF of the low half and AF = 0.
MAO_ALU_INLINE WideResult mul(uint64_t A, uint64_t B, unsigned Bits) {
  const uint64_t Sign = signMask(Bits), M = (Sign << 1) - 1;
  const unsigned __int128 P = static_cast<unsigned __int128>(A & M) * (B & M);
  const uint64_t Lo = static_cast<uint64_t>(P) & M;
  const uint64_t Hi = static_cast<uint64_t>(P >> Bits) & M;
  return {Lo, Hi, flagsOf(Lo, Sign, Hi != 0, Hi != 0)};
}

/// IMUL of the sign-extended operands, in all three forms (the one-operand
/// form keeps both halves, the others the low one): CF = OF = the product
/// does not fit the width. SF/ZF/PF/AF as for MUL.
MAO_ALU_INLINE WideResult imul(uint64_t A, uint64_t B, unsigned Bits) {
  const uint64_t Sign = signMask(Bits), M = (Sign << 1) - 1;
  const __int128 P =
      static_cast<__int128>(signExtend(A, Bits)) * signExtend(B, Bits);
  const uint64_t Lo = static_cast<uint64_t>(P) & M;
  const uint64_t Hi = static_cast<uint64_t>(P >> Bits) & M;
  const bool Overflow = signExtend(Lo, Bits) != P;
  return {Lo, Hi, flagsOf(Lo, Sign, Overflow, Overflow)};
}

/// DIV of \p Hi:\p Lo by \p Den, nonzero within the width (the caller
/// stops on a zero divisor). A quotient too wide faults on x86; the kernel
/// truncates it. All six flags are undefined; the kernel writes CF = OF =
/// AF = 0 and SF/ZF/PF of the quotient.
MAO_ALU_INLINE WideResult div(uint64_t Hi, uint64_t Lo, uint64_t Den,
                              unsigned Bits) {
  const uint64_t Sign = signMask(Bits), M = (Sign << 1) - 1;
  const unsigned __int128 N =
      (static_cast<unsigned __int128>(Hi & M) << Bits) | (Lo & M);
  const uint64_t Q = static_cast<uint64_t>(N / (Den & M)) & M;
  return {Q, static_cast<uint64_t>(N % (Den & M)) & M,
          flagsOf(Q, Sign, false, false)};
}

/// IDIV: DIV over sign-extended operands.
MAO_ALU_INLINE WideResult idiv(uint64_t Hi, uint64_t Lo, uint64_t Den,
                               unsigned Bits) {
  const uint64_t Sign = signMask(Bits), M = (Sign << 1) - 1;
  const int64_t D = signExtend(Den, Bits);
  const __int128 N =
      (static_cast<__int128>(signExtend(Hi, Bits)) << Bits) | (Lo & M);
  const uint64_t Q = static_cast<uint64_t>(N / D) & M;
  return {Q, static_cast<uint64_t>(N % D) & M, flagsOf(Q, Sign, false, false)};
}

/// UCOMISS/UCOMISD flags: unordered sets ZF, PF and CF; otherwise ZF says
/// equal and CF less. OF, AF and SF clear.
template <typename Float> MAO_ALU_INLINE Flags ucomi(Float A, Float B) {
  const bool Unordered = A != A || B != B;
  return static_cast<Flags>((Unordered || A == B) * FlagZF |
                            Unordered * FlagPF |
                            (Unordered || A < B) * FlagCF);
}
MAO_ALU_INLINE Flags ucomiss(uint64_t A, uint64_t B) {
  return ucomi(f32(A), f32(B));
}
MAO_ALU_INLINE Flags ucomisd(uint64_t A, uint64_t B) {
  return ucomi(f64(A), f64(B));
}

} // namespace mao::alu

#undef MAO_ALU_INLINE

#endif // MAO_X86_ALU_H
