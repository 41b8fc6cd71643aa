//===- sim/Emulator.cpp - Architectural x86-64 interpreter -------------------==//

#include "sim/Emulator.h"

#include "x86/Alu.h"

#include <cassert>

using namespace mao;

uint64_t MachineState::gprValue(Reg R) const {
  uint64_t Full = Gpr[gprSuperIndex(R)];
  if (regIsHighByte(R))
    return (Full >> 8) & 0xff;
  return Full & alu::mask(regWidth(R));
}

void MachineState::setGpr(Reg R, uint64_t Value) {
  uint64_t &Full = Gpr[gprSuperIndex(R)];
  if (regIsHighByte(R)) {
    Full = (Full & ~0xff00ULL) | ((Value & 0xff) << 8);
    return;
  }
  switch (regWidth(R)) {
  case Width::B:
    Full = (Full & ~0xffULL) | (Value & 0xff);
    break;
  case Width::W:
    Full = (Full & ~0xffffULL) | (Value & 0xffff);
    break;
  case Width::L:
    Full = Value & 0xffffffffULL; // 32-bit writes zero-extend.
    break;
  case Width::Q:
  case Width::None:
    Full = Value;
    break;
  }
}

DecodedReg DecodedReg::of(Reg R) {
  DecodedReg D;
  if (!regIsGpr(R))
    return D;
  const bool High = regIsHighByte(R);
  const Width W = High ? Width::B : regWidth(R);
  D.Code = static_cast<uint8_t>(gprSuperIndex(R) | (High ? 0x10 : 0) |
                                (static_cast<unsigned>(W) << 5));
  return D;
}

static_assert(sizeof(DecodedInsn) == 64, "keep decoded records compact");

namespace {

int8_t gprSlot(Reg R) {
  return R == Reg::None ? -1 : static_cast<int8_t>(gprSuperIndex(R));
}

DecodedInsn decode(const MaoEntry &Entry) {
  const Instruction &Insn = Entry.instruction();
  const OpcodeInfo &Info = Insn.info();
  DecodedInsn D;
  D.Entry = &Entry;
  D.Address = Entry.Address;
  assert(Entry.Size <= 0xff && "instructions encode in at most 15 bytes");
  D.Size = static_cast<uint8_t>(Entry.Size);
  D.Fx = Insn.effects();
  D.Latency = Info.Latency;
  D.Uops = Info.Uops;
  D.Ports = Info.Ports;
  D.Kind = Info.Kind;
  if (Insn.isCondJump())
    D.Bits |= DecodedInsn::CondJump;
  if (Insn.isUncondJump())
    D.Bits |= DecodedInsn::UncondJump;
  if (Insn.isCall())
    D.Bits |= DecodedInsn::Call;
  if (Insn.isReturn())
    D.Bits |= DecodedInsn::Return;
  if (Insn.hasIndirectTarget())
    D.Bits |= DecodedInsn::Indirect;
  if (Info.Kind == EncKind::Prefetch)
    D.Bits |= DecodedInsn::Prefetch;
  for (unsigned I = 0; I < Insn.Ops.size() && I < D.Regs.size(); ++I)
    if (Insn.Ops[I].isReg())
      D.Regs[I] = DecodedReg::of(Insn.Ops[I].R);
  if (const Operand *Mem = Insn.memOperand()) {
    const MemRef &M = Mem->Mem;
    D.MemOp = static_cast<int8_t>(Mem - Insn.Ops.begin());
    D.Mem.Disp = M.Disp;
    D.Mem.Scale = M.Scale;
    auto IsAddressReg = [](Reg R) { return R == Reg::None || regIsGpr(R); };
    D.Mem.Resolvable = !M.hasSym() && !M.isRipRelative() &&
                       IsAddressReg(M.Base) && IsAddressReg(M.Index);
    if (D.Mem.Resolvable) {
      D.Mem.Base = gprSlot(M.Base);
      D.Mem.Index = gprSlot(M.Index);
    }
  }
  return D;
}

} // namespace

Emulator::Emulator(MaoUnit &Unit) {
  // One walk decodes every instruction and binds each label to the index
  // of the instruction that follows it; duplicate labels keep the first
  // definition. Branch and call targets resolve once all labels are known.
  for (const MaoEntry &Entry : Unit.entries()) {
    if (Entry.isLabel())
      Labels.emplace(Entry.labelName(), static_cast<uint32_t>(Insns.size()));
    else if (Entry.isInstruction())
      Insns.push_back(decode(Entry));
  }
  for (DecodedInsn &D : Insns) {
    if (!D.is(DecodedInsn::CondJump | DecodedInsn::UncondJump |
              DecodedInsn::Call) ||
        D.is(DecodedInsn::Indirect))
      continue;
    auto It = Labels.find(D.insn().Ops[0].Sym);
    if (It != Labels.end())
      D.Target = It->second;
  }
}

std::optional<uint32_t> Emulator::labelIndex(const std::string &Name) const {
  auto It = Labels.find(Name);
  if (It == Labels.end())
    return std::nullopt;
  return It->second;
}

const uint8_t *Emulator::findPage(uint64_t PageNo) const {
  if (PageNo == LastPageNo)
    return LastPage;
  auto It = Pages.find(PageNo);
  if (It == Pages.end())
    return nullptr;
  LastPageNo = PageNo;
  LastPage = It->second->data();
  return LastPage;
}

uint8_t *Emulator::pageFor(uint64_t PageNo) {
  if (PageNo != LastPageNo) {
    std::unique_ptr<Page> &P = Pages[PageNo];
    if (!P)
      P = std::make_unique<Page>(); // Zero-filled.
    LastPageNo = PageNo;
    LastPage = P->data();
  }
  return LastPage;
}

void Emulator::store(uint64_t Address, uint64_t Value, unsigned Bytes) {
  assert(Bytes <= 8 && "stores are at most 8 bytes");
  const uint64_t Offset = Address & (PageBytes - 1);
  if (Offset + Bytes <= PageBytes) {
    uint8_t *P = pageFor(Address >> PageBits) + Offset;
    for (unsigned I = 0; I < Bytes; ++I)
      P[I] = static_cast<uint8_t>(Value >> (8 * I));
    return;
  }
  for (unsigned I = 0; I < Bytes; ++I) // Straddles a page boundary.
    pageFor((Address + I) >> PageBits)[(Address + I) & (PageBytes - 1)] =
        static_cast<uint8_t>(Value >> (8 * I));
}

uint64_t Emulator::load(uint64_t Address, unsigned Bytes) const {
  assert(Bytes <= 8 && "loads are at most 8 bytes");
  const uint64_t Offset = Address & (PageBytes - 1);
  uint64_t Value = 0;
  if (Offset + Bytes <= PageBytes) {
    const uint8_t *P = findPage(Address >> PageBits);
    if (!P)
      return 0;
    for (unsigned I = 0; I < Bytes; ++I)
      Value |= static_cast<uint64_t>(P[Offset + I]) << (8 * I);
    return Value;
  }
  for (unsigned I = 0; I < Bytes; ++I) { // Straddles a page boundary.
    const uint8_t *P = findPage((Address + I) >> PageBits);
    if (P)
      Value |= static_cast<uint64_t>(P[(Address + I) & (PageBytes - 1)])
               << (8 * I);
  }
  return Value;
}

void Emulator::resetMemory() {
  Pages.clear();
  LastPageNo = ~0ULL;
  LastPage = nullptr;
}

namespace {

/// One in-flight execution: wraps state + memory access helpers.
class Interp {
public:
  Interp(Emulator &Em, MachineState State) : Em(Em), S(std::move(State)) {}

  EmulationResult run(const std::string &Name, const Emulator::Config &Cfg);

private:
  // --- Operand access -------------------------------------------------------
  uint64_t readReg(DecodedReg R) const {
    return (S.Gpr[R.super()] >> R.shift()) & alu::mask(R.width());
  }

  /// MachineState::setGpr on a pre-split register: 32-bit views
  /// zero-extend, narrower views merge.
  void writeReg(DecodedReg R, uint64_t Value) {
    uint64_t &Full = S.Gpr[R.super()];
    if (R.width() == Width::L) {
      Full = Value & 0xffffffffULL;
      return;
    }
    const uint64_t Mask = alu::mask(R.width()) << R.shift();
    Full = (Full & ~Mask) | ((Value << R.shift()) & Mask);
  }

  std::optional<uint64_t> memAddress(const MemRef &M) {
    if (M.hasSym() || M.isRipRelative())
      return std::nullopt; // No data-symbol layout in the emulator.
    uint64_t A = static_cast<uint64_t>(M.Disp);
    if (M.Base != Reg::None)
      A += S.gpr(M.Base);
    if (M.Index != Reg::None)
      A += S.gpr(M.Index) * M.Scale;
    return A;
  }

  /// Address of operand \p I, a memory operand: the decoded recipe for the
  /// first one (the modelled subset never has a second).
  std::optional<uint64_t> memAddress(const DecodedInsn &D, unsigned I) {
    if (static_cast<int>(I) == D.MemOp)
      return D.Mem.address(S);
    return memAddress(D.insn().Ops[I].Mem);
  }

  std::optional<uint64_t> readOperand(const DecodedInsn &D, unsigned I,
                                      Width W) {
    if (I < D.Regs.size() && D.Regs[I].isGpr())
      return readReg(D.Regs[I]);
    const Operand &Op = D.insn().Ops[I];
    switch (Op.Kind) {
    case OperandKind::Immediate:
      if (!Op.Sym.empty())
        return std::nullopt;
      return static_cast<uint64_t>(Op.Imm) & alu::mask(W);
    case OperandKind::Register:
      return S.gprValue(Op.R);
    case OperandKind::Memory: {
      auto A = memAddress(D, I);
      if (!A)
        return std::nullopt;
      return Em.load(*A, widthBytes(W));
    }
    default:
      return std::nullopt;
    }
  }

  bool writeOperand(const DecodedInsn &D, unsigned I, Width W,
                    uint64_t Value) {
    if (I < D.Regs.size() && D.Regs[I].isGpr()) {
      writeReg(D.Regs[I], Value & alu::mask(W));
      return true;
    }
    const Operand &Op = D.insn().Ops[I];
    if (Op.isReg()) {
      S.setGpr(Op.R, Value & alu::mask(W));
      return true;
    }
    if (Op.isMem()) {
      auto A = memAddress(D, I);
      if (!A)
        return false;
      Em.store(*A, Value, widthBytes(W));
      return true;
    }
    return false;
  }

  // --- Flags ----------------------------------------------------------------
  void setFlags(alu::Flags F) {
    S.CF = F & FlagCF;
    S.PF = F & FlagPF;
    S.AF = F & FlagAF;
    S.ZF = F & FlagZF;
    S.SF = F & FlagSF;
    S.OF = F & FlagOF;
  }

  /// MUL, one-operand IMUL, DIV and IDIV: the halves go to the width's
  /// views of %rax and %rdx.
  void writeWide(Width W, const alu::WideResult &R) {
    S.setGpr(gprWithWidth(Reg::RAX, W), R.Lo);
    S.setGpr(gprWithWidth(Reg::RDX, W), R.Hi);
    setFlags(R.F);
  }

  bool evalCond(CondCode CC) const {
    switch (CC) {
    case CondCode::O:
      return S.OF;
    case CondCode::NO:
      return !S.OF;
    case CondCode::B:
      return S.CF;
    case CondCode::AE:
      return !S.CF;
    case CondCode::E:
      return S.ZF;
    case CondCode::NE:
      return !S.ZF;
    case CondCode::BE:
      return S.CF || S.ZF;
    case CondCode::A:
      return !S.CF && !S.ZF;
    case CondCode::S:
      return S.SF;
    case CondCode::NS:
      return !S.SF;
    case CondCode::P:
      return S.PF;
    case CondCode::NP:
      return !S.PF;
    case CondCode::L:
      return S.SF != S.OF;
    case CondCode::GE:
      return S.SF == S.OF;
    case CondCode::LE:
      return S.ZF || S.SF != S.OF;
    case CondCode::G:
      return !S.ZF && S.SF == S.OF;
    case CondCode::None:
      break;
    }
    assert(false && "evaluating the null condition");
    return false;
  }

  // --- Control transfer -----------------------------------------------------
  enum class Flow { Next, Jump, Stop };

  /// Executes one instruction other than call and ret. On Flow::Jump the
  /// branch was taken (to D.Target); on Flow::Stop, Error says why.
  Flow exec(const DecodedInsn &D);

  uint64_t &rsp() {
    return S.Gpr[static_cast<unsigned>(Reg::RSP) -
                 static_cast<unsigned>(Reg::RAX)];
  }

  Emulator &Em;
  MachineState S;
  std::string Error;
  std::vector<uint32_t> CallStack; ///< Return indices.
};

Interp::Flow Interp::exec(const DecodedInsn &D) {
  const Instruction &Insn = D.insn();
  const Width W = Insn.W;
  switch (D.Kind) {
  case EncKind::Nop:
  case EncKind::Prefetch:
    return Flow::Next;

  case EncKind::Mov: {
    auto V = readOperand(D, 0, W);
    if (!V || !writeOperand(D, 1, W, *V)) {
      Error = "mov with unresolvable operand: " + Insn.toString();
      return Flow::Stop;
    }
    return Flow::Next;
  }

  case EncKind::Movx: {
    auto V = readOperand(D, 0, Insn.SrcW);
    if (!V) {
      Error = "movx source unresolvable: " + Insn.toString();
      return Flow::Stop;
    }
    uint64_t Value = Insn.Mn == Mnemonic::MOVZX
                         ? (*V & alu::mask(Insn.SrcW))
                         : static_cast<uint64_t>(
                               alu::signExtend(*V, alu::bitsOf(Insn.SrcW)));
    writeOperand(D, 1, W, Value & alu::mask(W));
    return Flow::Next;
  }

  case EncKind::Lea: {
    auto A = memAddress(D, 0);
    if (!A) {
      Error = "lea of a symbolic address: " + Insn.toString();
      return Flow::Stop;
    }
    writeOperand(D, 1, W, *A & alu::mask(W));
    return Flow::Next;
  }

  case EncKind::AluRMI: {
    const unsigned Bits = alu::bitsOf(W);
    auto A = readOperand(D, 1, W); // dest (first ALU input)
    auto B = readOperand(D, 0, W); // src
    if (!A || !B) {
      Error = "ALU operand unresolvable: " + Insn.toString();
      return Flow::Stop;
    }
    const std::optional<alu::Result> R =
        alu::binary(Insn.Mn, *A, *B, S.CF, Bits);
    if (!R) {
      Error = "unexpected ALU mnemonic";
      return Flow::Stop;
    }
    setFlags(R->F);
    if (Insn.Mn != Mnemonic::CMP)
      writeOperand(D, 1, W, R->Value);
    return Flow::Next;
  }

  case EncKind::Test: {
    const unsigned Bits = alu::bitsOf(W);
    auto A = readOperand(D, 1, W);
    auto B = readOperand(D, 0, W);
    if (!A || !B) {
      Error = "test operand unresolvable";
      return Flow::Stop;
    }
    setFlags(alu::logic(*A & *B, Bits).F);
    return Flow::Next;
  }

  case EncKind::UnaryRM: {
    const unsigned Bits = alu::bitsOf(W);
    auto V = readOperand(D, 0, W);
    if (!V) {
      Error = "unary operand unresolvable";
      return Flow::Stop;
    }
    switch (Insn.Mn) {
    case Mnemonic::NOT:
      writeOperand(D, 0, W, ~*V & alu::mask(W));
      return Flow::Next;
    case Mnemonic::NEG: {
      const alu::Result R = alu::sub(0, *V, false, Bits);
      setFlags(R.F);
      writeOperand(D, 0, W, R.Value);
      return Flow::Next;
    }
    case Mnemonic::INC:
    case Mnemonic::DEC: {
      // ADD and SUB of 1 that keep CF.
      const bool CF = S.CF;
      const alu::Result R = Insn.Mn == Mnemonic::INC
                                ? alu::add(*V, 1, false, Bits)
                                : alu::sub(*V, 1, false, Bits);
      setFlags(R.F);
      S.CF = CF;
      writeOperand(D, 0, W, R.Value);
      return Flow::Next;
    }
    case Mnemonic::MUL:
      writeWide(W, alu::mul(S.gprValue(gprWithWidth(Reg::RAX, W)), *V, Bits));
      return Flow::Next;
    case Mnemonic::DIV:
    case Mnemonic::IDIV: {
      if ((*V & alu::mask(W)) == 0) {
        Error = "division by zero";
        return Flow::Stop;
      }
      const uint64_t Hi = S.gprValue(gprWithWidth(Reg::RDX, W));
      const uint64_t Lo = S.gprValue(gprWithWidth(Reg::RAX, W));
      writeWide(W, Insn.Mn == Mnemonic::DIV ? alu::div(Hi, Lo, *V, Bits)
                                            : alu::idiv(Hi, Lo, *V, Bits));
      return Flow::Next;
    }
    default:
      Error = "unexpected unary mnemonic";
      return Flow::Stop;
    }
  }

  case EncKind::ImulMulti: {
    const unsigned Bits = alu::bitsOf(W);
    if (Insn.Ops.size() == 1) {
      auto V = readOperand(D, 0, W);
      if (!V) {
        Error = "imul operand unresolvable";
        return Flow::Stop;
      }
      writeWide(W, alu::imul(S.gprValue(gprWithWidth(Reg::RAX, W)), *V, Bits));
      return Flow::Next;
    }
    // `imul src, dst` and `imul $imm, src, dst`: the last operand receives
    // the product of the first two.
    std::optional<uint64_t> A;
    if (Insn.Ops.size() == 2)
      A = readOperand(D, 0, W);
    else if (Insn.Ops[0].isConstImm())
      A = static_cast<uint64_t>(Insn.Ops[0].Imm);
    auto B = readOperand(D, 1, W);
    if (!A || !B) {
      Error = "imul operand unresolvable";
      return Flow::Stop;
    }
    const alu::WideResult R = alu::imul(*A, *B, Bits);
    setFlags(R.F);
    writeOperand(D, Insn.Ops.size() - 1, W, R.Lo);
    return Flow::Next;
  }

  case EncKind::ShiftRot: {
    const unsigned Bits = alu::bitsOf(W);
    const unsigned Target = Insn.Ops.size() - 1;
    auto V = readOperand(D, Target, W);
    if (!V) {
      Error = "shift operand unresolvable";
      return Flow::Stop;
    }
    uint64_t Count = 1;
    if (Insn.Ops.size() == 2) {
      if (Insn.Ops[0].isReg())
        Count = S.gprValue(Reg::CL);
      else
        Count = static_cast<uint64_t>(Insn.Ops[0].Imm);
    }
    Count &= (W == Width::Q) ? 63 : 31;
    if (Count == 0)
      return Flow::Next; // Flags unchanged.
    const std::optional<alu::Result> R =
        alu::shift(Insn.Mn, *V, static_cast<unsigned>(Count), Bits);
    if (!R) {
      Error = "unexpected shift mnemonic";
      return Flow::Stop;
    }
    if (R->SetsFlags)
      setFlags(R->F);
    writeOperand(D, Target, W, R->Value);
    return Flow::Next;
  }

  case EncKind::Push: {
    auto V = readOperand(D, 0, Width::Q);
    if (!V) {
      Error = "push operand unresolvable";
      return Flow::Stop;
    }
    rsp() -= 8;
    Em.store(rsp(), *V, 8);
    return Flow::Next;
  }
  case EncKind::Pop: {
    uint64_t V = Em.load(rsp(), 8);
    rsp() += 8;
    if (!writeOperand(D, 0, Width::Q, V)) {
      Error = "pop operand unresolvable";
      return Flow::Stop;
    }
    return Flow::Next;
  }

  case EncKind::Xchg: {
    auto A = readOperand(D, 0, W);
    auto B = readOperand(D, 1, W);
    if (!A || !B) {
      Error = "xchg operand unresolvable";
      return Flow::Stop;
    }
    writeOperand(D, 0, W, *B);
    writeOperand(D, 1, W, *A);
    return Flow::Next;
  }

  case EncKind::Bswap: {
    uint64_t V = S.gprValue(Insn.Ops[0].R);
    uint64_t R = 0;
    unsigned Bytes = widthBytes(W);
    for (unsigned I = 0; I < Bytes; ++I)
      R |= ((V >> (8 * I)) & 0xff) << (8 * (Bytes - 1 - I));
    S.setGpr(Insn.Ops[0].R, R);
    return Flow::Next;
  }

  case EncKind::Setcc:
    writeOperand(D, 0, Width::B, evalCond(Insn.CC) ? 1 : 0);
    return Flow::Next;

  case EncKind::Cmovcc: {
    if (evalCond(Insn.CC)) {
      auto V = readOperand(D, 0, W);
      if (!V) {
        Error = "cmov operand unresolvable";
        return Flow::Stop;
      }
      writeOperand(D, 1, W, *V);
    } else if (W == Width::L && Insn.Ops[1].isReg()) {
      // Even a not-taken 32-bit cmov zero-extends the destination.
      S.setGpr(Insn.Ops[1].R, S.gprValue(Insn.Ops[1].R));
    }
    return Flow::Next;
  }

  case EncKind::Jmp:
    if (D.is(DecodedInsn::Indirect)) {
      Error = "indirect jump in emulation: " + Insn.toString();
      return Flow::Stop;
    }
    return Flow::Jump;

  case EncKind::Jcc:
    return evalCond(Insn.CC) ? Flow::Jump : Flow::Next;

  case EncKind::Fixed:
    switch (Insn.Mn) {
    case Mnemonic::CLTQ:
      S.gpr(Reg::RAX) = static_cast<uint64_t>(
          static_cast<int64_t>(static_cast<int32_t>(S.gprValue(Reg::EAX))));
      return Flow::Next;
    case Mnemonic::CWTL:
      S.setGpr(Reg::EAX, static_cast<uint64_t>(static_cast<int32_t>(
                             static_cast<int16_t>(S.gprValue(Reg::AX)))));
      return Flow::Next;
    case Mnemonic::CBTW:
      S.setGpr(Reg::AX, static_cast<uint64_t>(static_cast<int16_t>(
                            static_cast<int8_t>(S.gprValue(Reg::AL)))));
      return Flow::Next;
    case Mnemonic::CLTD: {
      int32_t Eax = static_cast<int32_t>(S.gprValue(Reg::EAX));
      S.setGpr(Reg::EDX, Eax < 0 ? 0xffffffffULL : 0);
      return Flow::Next;
    }
    case Mnemonic::CQTO: {
      int64_t Rax = static_cast<int64_t>(S.gpr(Reg::RAX));
      S.gpr(Reg::RDX) = Rax < 0 ? ~0ULL : 0;
      return Flow::Next;
    }
    case Mnemonic::LEAVE:
      rsp() = S.gpr(Reg::RBP);
      S.gpr(Reg::RBP) = Em.load(rsp(), 8);
      rsp() += 8;
      return Flow::Next;
    case Mnemonic::CPUID:
      S.gpr(Reg::RAX) = S.gpr(Reg::RBX) = S.gpr(Reg::RCX) =
          S.gpr(Reg::RDX) = 0;
      return Flow::Next;
    case Mnemonic::RDTSC:
      // Deterministic timestamp: always 0, so runs stay reproducible.
      S.setGpr(Reg::EAX, 0);
      S.setGpr(Reg::EDX, 0);
      return Flow::Next;
    default:
      Error = "unimplemented fixed instruction: " + Insn.toString();
      return Flow::Stop;
    }

  // --- SSE scalar subset (bit-accurate via float/double reinterpretation).
  case EncKind::SseMov: {
    const Operand &Src = Insn.Ops[0];
    const Operand &Dst = Insn.Ops[1];
    unsigned Bytes = Insn.Mn == Mnemonic::MOVSS ? 4 : 8;
    uint64_t V;
    if (Src.isReg() && regIsXmm(Src.R)) {
      V = S.XmmLo[regEncoding(Src.R)];
    } else if (Src.isMem()) {
      auto A = memAddress(D, 0);
      if (!A) {
        Error = "SSE load address unresolvable";
        return Flow::Stop;
      }
      V = Em.load(*A, Bytes);
    } else {
      Error = "unsupported SSE move source";
      return Flow::Stop;
    }
    if (Dst.isReg() && regIsXmm(Dst.R)) {
      S.XmmLo[regEncoding(Dst.R)] = V;
    } else if (Dst.isMem()) {
      auto A = memAddress(D, 1);
      if (!A) {
        Error = "SSE store address unresolvable";
        return Flow::Stop;
      }
      Em.store(*A, V, Bytes);
    } else {
      Error = "unsupported SSE move destination";
      return Flow::Stop;
    }
    return Flow::Next;
  }

  case EncKind::SseCvtMov: {
    const Operand &Src = Insn.Ops[0];
    const Operand &Dst = Insn.Ops[1];
    if (Dst.isReg() && regIsXmm(Dst.R)) {
      auto V = Src.isReg() && !regIsXmm(Src.R)
                   ? std::optional<uint64_t>(S.gprValue(Src.R))
                   : readOperand(D, 0, Width::Q);
      if (!V) {
        Error = "movq/movd source unresolvable";
        return Flow::Stop;
      }
      S.XmmLo[regEncoding(Dst.R)] =
          Insn.Mn == Mnemonic::MOVD ? (*V & 0xffffffffULL) : *V;
      return Flow::Next;
    }
    if (Src.isReg() && regIsXmm(Src.R)) {
      uint64_t V = S.XmmLo[regEncoding(Src.R)];
      if (Insn.Mn == Mnemonic::MOVD)
        V &= 0xffffffffULL;
      if (Dst.isReg()) {
        S.setGpr(Dst.R, V);
        return Flow::Next;
      }
      if (Dst.isMem()) {
        auto A = memAddress(D, 1);
        if (!A) {
          Error = "movq store address unresolvable";
          return Flow::Stop;
        }
        Em.store(*A, V, Insn.Mn == Mnemonic::MOVD ? 4 : 8);
        return Flow::Next;
      }
    }
    Error = "unsupported movd/movq form";
    return Flow::Stop;
  }

  case EncKind::SseAlu: {
    const Operand &Src = Insn.Ops[0];
    const Operand &Dst = Insn.Ops[1];
    if (!Dst.isReg() || !regIsXmm(Dst.R)) {
      Error = "SSE ALU needs xmm destination";
      return Flow::Stop;
    }
    uint64_t SrcBits;
    if (Src.isReg() && regIsXmm(Src.R)) {
      SrcBits = S.XmmLo[regEncoding(Src.R)];
    } else if (Src.isMem()) {
      auto A = memAddress(D, 0);
      if (!A) {
        Error = "SSE ALU load unresolvable";
        return Flow::Stop;
      }
      SrcBits = Em.load(*A, 8);
    } else {
      Error = "unsupported SSE ALU source";
      return Flow::Stop;
    }
    uint64_t &DstBits = S.XmmLo[regEncoding(Dst.R)];
    const float DstF = alu::f32(DstBits), SrcF = alu::f32(SrcBits);
    const double DstD = alu::f64(DstBits), SrcD = alu::f64(SrcBits);
    const uint64_t High = DstBits & ~0xffffffffULL; // Kept by the *ss ops.
    switch (Insn.Mn) {
    case Mnemonic::ADDSS:
      DstBits = High | alu::bits(DstF + SrcF);
      return Flow::Next;
    case Mnemonic::SUBSS:
      DstBits = High | alu::bits(DstF - SrcF);
      return Flow::Next;
    case Mnemonic::MULSS:
      DstBits = High | alu::bits(DstF * SrcF);
      return Flow::Next;
    case Mnemonic::DIVSS:
      DstBits = High | alu::bits(DstF / SrcF);
      return Flow::Next;
    case Mnemonic::ADDSD:
      DstBits = alu::bits(DstD + SrcD);
      return Flow::Next;
    case Mnemonic::SUBSD:
      DstBits = alu::bits(DstD - SrcD);
      return Flow::Next;
    case Mnemonic::MULSD:
      DstBits = alu::bits(DstD * SrcD);
      return Flow::Next;
    case Mnemonic::DIVSD:
      DstBits = alu::bits(DstD / SrcD);
      return Flow::Next;
    case Mnemonic::XORPS:
    case Mnemonic::PXOR:
      DstBits ^= SrcBits;
      return Flow::Next;
    case Mnemonic::UCOMISS:
      setFlags(alu::ucomiss(DstBits, SrcBits));
      return Flow::Next;
    case Mnemonic::UCOMISD:
      setFlags(alu::ucomisd(DstBits, SrcBits));
      return Flow::Next;
    default:
      Error = "unimplemented SSE ALU op: " + Insn.toString();
      return Flow::Stop;
    }
  }

  case EncKind::Call:
  case EncKind::Ret:
    // Handled by the run loop (needs the call stack).
    assert(false && "call/ret handled by the run loop");
    return Flow::Stop;

  case EncKind::Opaque:
    Error = "opaque instruction reached: " + Insn.RawText;
    return Flow::Stop;
  }
  Error = "unimplemented instruction: " + Insn.toString();
  return Flow::Stop;
}

EmulationResult Interp::run(const std::string &Name,
                            const Emulator::Config &Cfg) {
  EmulationResult Result;
  std::optional<uint32_t> Start = Em.labelIndex(Name);
  if (!Start) {
    Result.Reason = StopReason::UnknownTarget;
    Result.Message = "unknown entry point: " + Name;
    return Result;
  }

  rsp() = Cfg.StackBase;
  // Sentinel return address for the top frame.
  rsp() -= 8;
  Em.store(rsp(), 0xdeadbeefULL, 8);

  const std::vector<DecodedInsn> &Insns = Em.decoded();
  uint32_t IP = *Start;
  auto Stop = [&](StopReason Reason, std::string Message) {
    Result.Reason = Reason;
    Result.Message = std::move(Message);
    Result.Final = S;
    return Result;
  };
  while (true) {
    if (Result.InstructionsExecuted >= Cfg.MaxSteps)
      return Stop(StopReason::StepLimit, "");
    if (IP == Insns.size())
      return Stop(StopReason::Error, "fell off the end of the entry list");

    const DecodedInsn &D = Insns[IP];
    ++Result.InstructionsExecuted;

    // The step hook observes the *pre-execution* state (register file at
    // entry to the instruction), matching a PMU sample's semantics.
    if (Cfg.OnStep && !Cfg.OnStep(D, S))
      return Stop(StopReason::StepLimit, "");

    // Calls and returns manipulate the index-level call stack.
    if (D.is(DecodedInsn::Call)) {
      if (D.is(DecodedInsn::Indirect))
        return Stop(StopReason::Unsupported, "indirect call");
      if (D.Target == DecodedInsn::NoTarget)
        return Stop(StopReason::UnknownTarget,
                    "call to unknown symbol: " + D.insn().Ops[0].Sym);
      rsp() -= 8;
      Em.store(rsp(), 0x1000 + CallStack.size(), 8);
      CallStack.push_back(IP + 1);
      IP = D.Target;
      continue;
    }
    if (D.is(DecodedInsn::Return)) {
      rsp() += 8;
      if (CallStack.empty())
        return Stop(StopReason::Returned, "");
      IP = CallStack.back();
      CallStack.pop_back();
      continue;
    }

    switch (exec(D)) {
    case Flow::Next:
      ++IP;
      break;
    case Flow::Jump:
      if (D.Target == DecodedInsn::NoTarget)
        return Stop(StopReason::UnknownTarget,
                    "jump to unknown label: " + D.insn().Ops[0].Sym);
      IP = D.Target;
      break;
    case Flow::Stop:
      return Stop(StopReason::Unsupported, std::move(Error));
    }
  }
}

} // namespace

EmulationResult Emulator::run(const std::string &Name,
                              const MachineState &Initial,
                              const Config &Cfg) {
  Interp I(*this, Initial);
  return I.run(Name, Cfg);
}

EmulationResult Emulator::run(const std::string &Name,
                              const MachineState &Initial) {
  return run(Name, Initial, Config());
}
