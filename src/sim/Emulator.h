//===- sim/Emulator.h - Architectural x86-64 interpreter --------*- C++ -*-===//
///
/// \file
/// A functional (architectural-state) interpreter for the modelled
/// instruction subset. Two roles in the reproduction:
///
///  1. Verification. The paper validates MAO by assembling before/after
///     outputs and diffing (Sec. III-A). For *transforming* passes we can
///     go further: run the program before and after the pass on the same
///     inputs and require identical architectural results. The emulator is
///     the oracle for those property tests.
///
///  2. Trace generation. The micro-architectural simulator (src/uarch) is
///     trace-driven; the emulator produces the dynamic instruction stream
///     (with branch outcomes implicit in the sequence) that the uarch model
///     consumes. It can also produce register-file snapshots for the
///     SIMADDR sampling experiments.
///
/// Construction decodes the unit once into a flat instruction table
/// (DecodedInsn): effects, opcode timing, branch targets resolved to table
/// indices, register operands pre-split and the memory operand's address
/// recipe. Runs walk table indices, so no per-step work repeats what the
/// decoder already did. Code addresses (needed only by the uarch model)
/// are those relaxation assigned before the Emulator was constructed.
///
//===----------------------------------------------------------------------===//

#ifndef MAO_SIM_EMULATOR_H
#define MAO_SIM_EMULATOR_H

#include "ir/MaoUnit.h"
#include "support/Status.h"

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

namespace mao {

/// Architectural machine state.
struct MachineState {
  std::array<uint64_t, NumGprSupers> Gpr{};
  std::array<uint64_t, 16> XmmLo{}; // Low 64 bits; enough for scalar SSE.
  bool CF = false, PF = false, AF = false, ZF = false, SF = false,
       OF = false;

  uint64_t &gpr(Reg R) { return Gpr[gprSuperIndex(R)]; }
  uint64_t gprValue(Reg R) const;   ///< Width-masked read of any GPR view.
  void setGpr(Reg R, uint64_t Value); ///< Width-correct write (merge/zext).

  /// Whole-state comparison, used by the differential table-consistency
  /// tests (check/ layer) to detect which flags an execution touched.
  bool operator==(const MachineState &) const = default;
};

/// Effective address of a memory operand, resolved at decode time:
/// Disp + Base + Index * Scale over the full 64-bit super registers.
struct AddressRecipe {
  int64_t Disp = 0;
  int8_t Base = -1;  ///< GPR super index; -1 when absent.
  int8_t Index = -1; ///< GPR super index; -1 when absent.
  uint8_t Scale = 1;
  /// False for symbolic and RIP-relative references (the emulator has no
  /// data-symbol layout, so they have no address) and for base or index
  /// registers that are not GPRs.
  bool Resolvable = false;

  std::optional<uint64_t> address(const MachineState &S) const {
    if (!Resolvable)
      return std::nullopt;
    uint64_t A = static_cast<uint64_t>(Disp);
    if (Base >= 0)
      A += S.Gpr[static_cast<unsigned>(Base)];
    if (Index >= 0)
      A += S.Gpr[static_cast<unsigned>(Index)] * Scale;
    return A;
  }
};

/// A GPR operand split into what a read or write needs, in one byte: the
/// super index (bits 0-3), whether the view is %ah..%bh (bit 4) and the
/// view's Width (bits 5-7). NotGpr marks every other operand.
struct DecodedReg {
  static constexpr uint8_t NotGpr = 0xff;
  uint8_t Code = NotGpr;

  static DecodedReg of(Reg R);
  bool isGpr() const { return Code != NotGpr; }
  unsigned super() const { return Code & 0xf; }
  unsigned shift() const { return (Code & 0x10) ? 8 : 0; }
  Width width() const { return static_cast<Width>(Code >> 5); }
};

/// One instruction of the unit, decoded once per Emulator. Everything the
/// run loop and the uarch model consult per dynamic execution is here, so
/// neither re-derives it from the Instruction on every step. 64 bytes: the
/// corpus-scale units decode hundreds of thousands of these.
struct DecodedInsn {
  static constexpr uint32_t NoTarget = ~0u;
  /// Kind bits.
  enum : uint8_t {
    CondJump = 1 << 0,
    UncondJump = 1 << 1,
    Call = 1 << 2,
    Return = 1 << 3,
    Indirect = 1 << 4, ///< Branch or call through a register or memory.
    Prefetch = 1 << 5,
  };

  const MaoEntry *Entry = nullptr;
  int64_t Address = 0;       ///< Code address (from relaxation).
  AddressRecipe Mem;         ///< Recipe of the first memory operand.
  InstructionEffects Fx;
  /// Table index of a direct branch or call target; NoTarget when the
  /// label is not defined (the error is raised only if it is taken).
  uint32_t Target = NoTarget;
  uint8_t Size = 0;          ///< Encoded size in bytes.
  uint8_t Latency = 0, Uops = 0, Ports = 0; ///< From OpcodeInfo.
  EncKind Kind = EncKind::Opaque;
  uint8_t Bits = 0;          ///< Kind bits above.
  int8_t MemOp = -1;         ///< Index of the first memory operand, or -1.
  std::array<DecodedReg, 3> Regs{}; ///< Parallel to the operands.

  const Instruction &insn() const { return Entry->instruction(); }
  bool is(uint8_t Mask) const { return (Bits & Mask) != 0; }
  /// Data address the instruction's memory operand touches under \p S
  /// (the pre-execution state); nullopt without a resolvable one.
  std::optional<uint64_t> dataAddress(const MachineState &S) const {
    if (MemOp < 0)
      return std::nullopt;
    return Mem.address(S);
  }
};

/// Why execution stopped.
enum class StopReason {
  Returned,       ///< Top-level ret.
  StepLimit,      ///< Exceeded the configured budget.
  UnknownTarget,  ///< Branch/call to an unknown label.
  Unsupported,    ///< Opaque or unimplemented instruction reached.
  Error,          ///< Internal inconsistency (e.g. division by zero).
};

/// Result of one run.
struct EmulationResult {
  StopReason Reason = StopReason::Error;
  std::string Message;
  uint64_t InstructionsExecuted = 0;
  MachineState Final;
};

/// The interpreter. Not thread-safe: even load() updates the page cache,
/// so concurrent measurements each construct their own Emulator.
class Emulator {
public:
  struct Config {
    uint64_t MaxSteps = 10'000'000;
    uint64_t StackBase = 0x7fff'0000'0000ULL; ///< Initial rsp (grows down).
    /// Invoked for each instruction before it executes, with the
    /// pre-execution state (a PMU sample's view; Emulator.OnStepSeesPreState
    /// pins it). Return false to stop early (reported as StepLimit).
    std::function<bool(const DecodedInsn &, const MachineState &)> OnStep;
  };

  explicit Emulator(MaoUnit &Unit);

  /// Runs function \p Name from \p Initial state. Memory persists across
  /// runs on the same Emulator (intentional: set up inputs with store()).
  EmulationResult run(const std::string &Name, const MachineState &Initial,
                      const Config &Cfg);
  EmulationResult run(const std::string &Name, const MachineState &Initial);

  /// Direct memory access, little-endian.
  void store(uint64_t Address, uint64_t Value, unsigned Bytes);
  uint64_t load(uint64_t Address, unsigned Bytes) const;

  /// Clears memory between independent runs.
  void resetMemory();

  /// The decoded instruction table, in entry-list order.
  const std::vector<DecodedInsn> &decoded() const { return Insns; }
  /// Index of the first instruction at or after label \p Name; nullopt
  /// when the unit does not define it.
  std::optional<uint32_t> labelIndex(const std::string &Name) const;

private:
  /// Memory is 4 KiB zero-filled pages, allocated on first store; reads
  /// of unmapped pages yield 0.
  static constexpr unsigned PageBits = 12;
  static constexpr uint64_t PageBytes = 1ULL << PageBits;
  using Page = std::array<uint8_t, PageBytes>;
  const uint8_t *findPage(uint64_t PageNo) const;
  uint8_t *pageFor(uint64_t PageNo);

  std::vector<DecodedInsn> Insns;
  /// Label name -> index of the first instruction at or after it (the
  /// table size when none follows).
  std::unordered_map<std::string, uint32_t> Labels;
  std::unordered_map<uint64_t, std::unique_ptr<Page>> Pages;
  mutable uint64_t LastPageNo = ~0ULL; ///< Most recently used mapped page.
  mutable uint8_t *LastPage = nullptr;
};

} // namespace mao

#endif // MAO_SIM_EMULATOR_H
