//===- passes/PeepholeEngine.cpp - Table-driven peephole rewriting ----------===//
///
/// \file
/// Implementation of the rule table (compiled from PeepholeRules.def, or
/// reloaded from a maosynth-emitted .def at runtime) and the rewrite
/// engine itself: the four strategy matchers ported from the original
/// hand-written passes, plus the generic window matcher for synthesized
/// rules. Byte-identical output to the pre-table passes is the migration
/// contract; PassesTest pins it pattern by pattern.
///
//===----------------------------------------------------------------------===//

#include "passes/PeepholeEngine.h"

#include "passes/PassUtil.h"
#include "support/Hash.h"
#include "support/Stats.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace mao {

namespace {

//===----------------------------------------------------------------------===//
// Template language.
//===----------------------------------------------------------------------===//

/// The straight-line reg/imm vocabulary window rules may use. Restricting
/// the table keeps every window rule inside the subset the synthesis
/// prover (check/SymbolicEval) models exactly.
struct VocabEntry {
  const char *Base;
  Mnemonic Mn;
};
constexpr VocabEntry WindowVocab[] = {
    {"mov", Mnemonic::MOV},   {"add", Mnemonic::ADD},
    {"sub", Mnemonic::SUB},   {"and", Mnemonic::AND},
    {"or", Mnemonic::OR},     {"xor", Mnemonic::XOR},
    {"test", Mnemonic::TEST}, {"cmp", Mnemonic::CMP},
    {"neg", Mnemonic::NEG},   {"not", Mnemonic::NOT},
    {"inc", Mnemonic::INC},   {"dec", Mnemonic::DEC},
    {"shl", Mnemonic::SHL},   {"shr", Mnemonic::SHR},
    {"sar", Mnemonic::SAR},
};

std::string_view trimmed(std::string_view Text) {
  while (!Text.empty() && (Text.front() == ' ' || Text.front() == '\t'))
    Text.remove_prefix(1);
  while (!Text.empty() && (Text.back() == ' ' || Text.back() == '\t'))
    Text.remove_suffix(1);
  return Text;
}

MaoStatus parseTemplateMnemonic(std::string_view Text, Mnemonic &Mn,
                                Width &W) {
  for (const VocabEntry &V : WindowVocab) {
    std::string_view Base = V.Base;
    if (Text.size() != Base.size() + 1 || Text.substr(0, Base.size()) != Base)
      continue;
    switch (Text.back()) {
    case 'b': W = Width::B; break;
    case 'w': W = Width::W; break;
    case 'l': W = Width::L; break;
    case 'q': W = Width::Q; break;
    default:
      return MaoStatus::error("bad width suffix in template mnemonic '" +
                              std::string(Text) + "'");
    }
    Mn = V.Mn;
    return MaoStatus::success();
  }
  return MaoStatus::error("mnemonic '" + std::string(Text) +
                          "' is outside the window-rule vocabulary");
}

MaoStatus parseTemplateOperand(std::string_view Text, TemplateOperand &Out) {
  Text = trimmed(Text);
  if (Text.size() == 2 && Text[0] == '%' && Text[1] >= 'A' &&
      Text[1] < static_cast<char>('A' + MaxRuleVars)) {
    Out.K = TemplateOperand::Kind::RegVar;
    Out.Var = static_cast<unsigned>(Text[1] - 'A');
    return MaoStatus::success();
  }
  if (Text.size() >= 2 && Text[0] == '$') {
    errno = 0;
    char *End = nullptr;
    std::string Digits(Text.substr(1));
    const long long Value = std::strtoll(Digits.c_str(), &End, 0);
    if (errno != 0 || End == Digits.c_str() || *End != '\0')
      return MaoStatus::error("bad immediate in template operand '" +
                              std::string(Text) + "'");
    Out.K = TemplateOperand::Kind::Imm;
    Out.Value = Value;
    return MaoStatus::success();
  }
  return MaoStatus::error("bad template operand '" + std::string(Text) +
                          "' (expected %A..%D or $imm)");
}

//===----------------------------------------------------------------------===//
// Guards.
//===----------------------------------------------------------------------===//

struct FlagName {
  const char *Name;
  uint8_t Bit;
};
constexpr FlagName StatusFlagNames[] = {
    {"CF", FlagCF}, {"PF", FlagPF}, {"AF", FlagAF},
    {"ZF", FlagZF}, {"SF", FlagSF}, {"OF", FlagOF},
};

MaoStatus parseWindowGuards(std::string_view Text, uint8_t &DeadFlags) {
  DeadFlags = 0;
  Text = trimmed(Text);
  if (Text.empty())
    return MaoStatus::success();
  constexpr std::string_view Prefix = "dead-flags:";
  if (Text.substr(0, Prefix.size()) != Prefix)
    return MaoStatus::error("bad window guard '" + std::string(Text) +
                            "' (expected empty or dead-flags:F|F|...)");
  Text.remove_prefix(Prefix.size());
  while (!Text.empty()) {
    const size_t Bar = Text.find('|');
    const std::string_view Part = trimmed(Text.substr(0, Bar));
    bool Known = false;
    for (const FlagName &F : StatusFlagNames)
      if (Part == F.Name) {
        DeadFlags |= F.Bit;
        Known = true;
      }
    if (!Known)
      return MaoStatus::error("unknown flag '" + std::string(Part) +
                              "' in window guard");
    if (Bar == std::string_view::npos)
      break;
    Text.remove_prefix(Bar + 1);
  }
  return MaoStatus::success();
}

//===----------------------------------------------------------------------===//
// Fire bookkeeping.
//===----------------------------------------------------------------------===//

void fired(PeepholeContext &Ctx, const PeepholeRule &R,
           const std::string &Text) {
  StatsRegistry::instance().counter("peep.fire." + R.Name).add(1);
  if (Ctx.OnFire)
    Ctx.OnFire(R, Text);
}

//===----------------------------------------------------------------------===//
// Strategy: EraseZeroExtend (ZEE).
//===----------------------------------------------------------------------===//

bool isSelfMove32(const Instruction &Insn) {
  return Insn.Mn == Mnemonic::MOV && Insn.W == Width::L &&
         Insn.Ops.size() == 2 && Insn.Ops[0].isReg() && Insn.Ops[1].isReg() &&
         Insn.Ops[0].R == Insn.Ops[1].R;
}

/// Scans backward for the nearest definition of \p R; true when it is a
/// 32-bit GPR write (which zero-extends) with no barrier in between.
bool precedingDefZeroExtends(const BasicBlock &BB, size_t MovIdx, Reg R) {
  const RegMask Bit = regMaskBit(R);
  for (size_t I = MovIdx; I-- > 0;) {
    const Instruction &Prev = BB.Insns[I]->instruction();
    const InstructionEffects Fx = Prev.effects();
    if (Fx.Barrier)
      return false;
    if (!(Fx.RegDefs & Bit))
      continue;
    // Found the def: it must be an explicit 32-bit register write.
    Reg Dst = plainRegDest(Prev);
    return Dst != Reg::None && superReg(Dst) == superReg(R) &&
           regWidth(Dst) == Width::L && !Fx.MemWrite;
  }
  return false; // Def not in this block: value may have set high bits.
}

unsigned runEraseZeroExtend(PeepholeContext &Ctx, const PeepholeRule &R) {
  unsigned Fired = 0;
  CFG Graph = CFG::build(Ctx.Fn);
  for (BasicBlock &BB : Graph.blocks()) {
    for (size_t I = 0; I < BB.Insns.size(); ++I) {
      const Instruction &Insn = BB.Insns[I]->instruction();
      if (!isSelfMove32(Insn))
        continue;
      if (!precedingDefZeroExtends(BB, I, Insn.Ops[0].R))
        continue;
      fired(Ctx, R, Insn.toString());
      Ctx.Unit.erase(BB.Insns[I]);
      BB.Insns.erase(BB.Insns.begin() + static_cast<long>(I));
      --I;
      ++Fired;
    }
  }
  return Fired;
}

//===----------------------------------------------------------------------===//
// Strategy: EraseRedundantTest (REDTEST).
//===----------------------------------------------------------------------===//

bool isSelfTest(const Instruction &Insn) {
  return Insn.Mn == Mnemonic::TEST && Insn.Ops.size() == 2 &&
         Insn.Ops[0].isReg() && Insn.Ops[1].isReg() &&
         Insn.Ops[0].R == Insn.Ops[1].R;
}

/// Scans backward from the test: the nearest flag-writing instruction
/// must be a result-flag ALU op into the tested register, same width,
/// with no intervening redefinition of the register.
bool precedingAluSetsSameFlags(const BasicBlock &BB, size_t TestIdx,
                               const Instruction &Test) {
  const Reg Tested = Test.Ops[0].R;
  const RegMask Bit = regMaskBit(Tested);
  for (size_t I = TestIdx; I-- > 0;) {
    const Instruction &Prev = BB.Insns[I]->instruction();
    const InstructionEffects Fx = Prev.effects();
    if (Fx.Barrier)
      return false;
    if (Fx.FlagsDef) {
      if (!flagsReflectResult(Prev.Mn))
        return false;
      Reg Dst = plainRegDest(Prev);
      return Dst == Tested && Prev.W == Test.W;
    }
    if (Fx.RegDefs & Bit)
      return false; // Register changed after the flags were set.
  }
  return false;
}

unsigned runEraseRedundantTest(PeepholeContext &Ctx, const PeepholeRule &R) {
  unsigned Fired = 0;
  FunctionAnalysis FA(Ctx.Fn);
  for (BasicBlock &BB : FA.Graph.blocks()) {
    InsnLiveness IL = perInstructionLiveness(FA.Graph, BB.Index, FA.Liveness);
    for (size_t I = 0; I < BB.Insns.size(); ++I) {
      const Instruction &Insn = BB.Insns[I]->instruction();
      if (!isSelfTest(Insn))
        continue;
      const uint8_t SafeFlags = FlagZF | FlagSF | FlagPF;
      if (IL.FlagsLiveAfter[I] & ~SafeFlags)
        continue;
      if (!precedingAluSetsSameFlags(BB, I, Insn))
        continue;
      fired(Ctx, R, Insn.toString());
      Ctx.Unit.erase(BB.Insns[I]);
      BB.Insns.erase(BB.Insns.begin() + static_cast<long>(I));
      IL.RegLiveAfter.erase(IL.RegLiveAfter.begin() + static_cast<long>(I));
      IL.FlagsLiveAfter.erase(IL.FlagsLiveAfter.begin() +
                              static_cast<long>(I));
      --I;
      ++Fired;
    }
  }
  return Fired;
}

//===----------------------------------------------------------------------===//
// Strategy: ForwardLoad (REDMOV).
//===----------------------------------------------------------------------===//

/// `mov mem, %gpr` of 32- or 64-bit width (narrow widths merge and are
/// not worth the pattern).
bool isRegLoad(const Instruction &Insn) {
  return Insn.Mn == Mnemonic::MOV && Insn.Ops.size() == 2 &&
         Insn.Ops[0].isMem() && Insn.Ops[1].isReg() &&
         regIsGpr(Insn.Ops[1].R) &&
         (Insn.W == Width::L || Insn.W == Width::Q) &&
         !Insn.Ops[0].Mem.isRipRelative();
}

unsigned runForwardLoad(PeepholeContext &Ctx, const PeepholeRule &R) {
  unsigned Fired = 0;
  CFG Graph = CFG::build(Ctx.Fn);
  for (BasicBlock &BB : Graph.blocks()) {
    // Track the most recent load: (address, width) -> value register.
    struct LastLoad {
      bool Valid = false;
      MemRef Addr;
      Width W = Width::None;
      Reg Value = Reg::None;
    } Last;

    for (EntryIter InsnIt : BB.Insns) {
      Instruction &Insn = InsnIt->instruction();
      const InstructionEffects Fx = Insn.effects();

      if (Last.Valid && isRegLoad(Insn) && Insn.W == Last.W &&
          Insn.Ops[0].Mem == Last.Addr &&
          superReg(Insn.Ops[1].R) != superReg(Last.Value)) {
        fired(Ctx, R, Insn.toString());
        Insn.Ops[0] =
            Operand::makeReg(gprWithWidth(superReg(Last.Value), Insn.W));
        ++Fired;
        // The destination now holds the same value: it can forward too.
        Last.Value = Insn.Ops[1].R;
        continue;
      }

      // Invalidate on anything that could change the address registers,
      // the cached value register, or memory.
      if (Last.Valid) {
        RegMask Watched = regMaskBit(Last.Addr.Base) |
                          regMaskBit(Last.Addr.Index) |
                          regMaskBit(Last.Value);
        if (Fx.MemWrite || Fx.Barrier || (Fx.RegDefs & Watched))
          Last.Valid = false;
      }
      if (isRegLoad(Insn)) {
        // A load overwritten by itself (same dest as an address reg) is
        // not cacheable.
        const MemRef &M = Insn.Ops[0].Mem;
        Reg Dst = Insn.Ops[1].R;
        if (superReg(Dst) != superReg(M.Base) &&
            (M.Index == Reg::None || superReg(Dst) != superReg(M.Index))) {
          Last.Valid = true;
          Last.Addr = M;
          Last.W = Insn.W;
          Last.Value = Dst;
        }
      }
    }
  }
  return Fired;
}

//===----------------------------------------------------------------------===//
// Strategy: FoldImmChain (ADDADD).
//===----------------------------------------------------------------------===//

bool isImmAddSub(const Instruction &Insn) {
  return (Insn.Mn == Mnemonic::ADD || Insn.Mn == Mnemonic::SUB) &&
         Insn.Ops.size() == 2 && Insn.Ops[0].isConstImm() &&
         Insn.Ops[1].isReg() && (Insn.W == Width::L || Insn.W == Width::Q);
}

int64_t signedDelta(const Instruction &Insn) {
  return Insn.Mn == Mnemonic::ADD ? Insn.Ops[0].Imm : -Insn.Ops[0].Imm;
}

/// Returns the index of a second add/sub on the same register that can be
/// folded into instruction \p I, or 0 when none.
size_t findFoldablePartner(const BasicBlock &BB, size_t I,
                           const InsnLiveness &IL) {
  const Instruction &First = BB.Insns[I]->instruction();
  if (!isImmAddSub(First))
    return 0;
  const Reg RX = First.Ops[1].R;
  const RegMask Bit = regMaskBit(RX);
  for (size_t J = I + 1; J < BB.Insns.size(); ++J) {
    const Instruction &Next = BB.Insns[J]->instruction();
    const InstructionEffects Fx = Next.effects();
    if (isImmAddSub(Next) && Next.Ops[1].R == RX && Next.W == First.W) {
      // CF/OF of the folded op can differ from the original sequence;
      // only fold when downstream consumers look at ZF/SF/PF at most.
      const uint8_t SafeFlags = FlagZF | FlagSF | FlagPF;
      if (IL.FlagsLiveAfter[J] & ~SafeFlags)
        return 0;
      return J;
    }
    if (Fx.Barrier)
      return 0;
    if ((Fx.RegDefs | Fx.RegUses) & Bit)
      return 0; // rX redefined or consumed in between.
    if (Fx.FlagsUse)
      return 0; // Someone reads the first op's flags.
    if (Fx.FlagsDef)
      return 0; // Conservative: keep the flag chain simple.
  }
  return 0;
}

void foldPair(PeepholeContext &Ctx, const PeepholeRule &R, BasicBlock &BB,
              size_t I, size_t J) {
  Instruction &First = BB.Insns[I]->instruction();
  Instruction &Second = BB.Insns[J]->instruction();
  int64_t Net = signedDelta(First) + signedDelta(Second);
  fired(Ctx, R, First.toString());
  Second.Mn = Net >= 0 ? Mnemonic::ADD : Mnemonic::SUB;
  Second.Ops[0] = Operand::makeImm(Net >= 0 ? Net : -Net);
  Ctx.Unit.erase(BB.Insns[I]);
  BB.Insns.erase(BB.Insns.begin() + static_cast<long>(I));
}

unsigned runFoldImmChain(PeepholeContext &Ctx, const PeepholeRule &R) {
  unsigned Fired = 0;
  FunctionAnalysis FA(Ctx.Fn);
  for (BasicBlock &BB : FA.Graph.blocks()) {
    bool Restart = true;
    while (Restart) {
      Restart = false;
      InsnLiveness IL =
          perInstructionLiveness(FA.Graph, BB.Index, FA.Liveness);
      for (size_t I = 0; I + 1 < BB.Insns.size(); ++I) {
        size_t J = findFoldablePartner(BB, I, IL);
        if (J == 0)
          continue;
        foldPair(Ctx, R, BB, I, J);
        ++Fired;
        Restart = true; // Liveness indices shifted; recompute.
        break;
      }
    }
  }
  return Fired;
}

//===----------------------------------------------------------------------===//
// Strategy: Window (generic adjacent N -> M rewrite).
//===----------------------------------------------------------------------===//

bool matchWindowAt(const PeepholeRule &R, const BasicBlock &BB, size_t I,
                   std::array<Reg, MaxRuleVars> &Bind) {
  Bind.fill(Reg::None);
  for (size_t K = 0; K < R.Pat.size(); ++K) {
    const Instruction &Insn = BB.Insns[I + K]->instruction();
    const TemplateInsn &T = R.Pat[K];
    if (Insn.Mn != T.Mn || Insn.W != T.W || Insn.CC != CondCode::None ||
        Insn.Ops.size() != T.Ops.size())
      return false;
    for (size_t O = 0; O < T.Ops.size(); ++O) {
      const Operand &Op = Insn.Ops[O];
      const TemplateOperand &TO = T.Ops[O];
      if (TO.K == TemplateOperand::Kind::RegVar) {
        if (!Op.isReg() || !regIsGpr(Op.R))
          return false;
        const Reg Super = superReg(Op.R);
        // Canonical view only (excludes %ah-style aliases).
        if (gprWithWidth(Super, T.W) != Op.R)
          return false;
        if (Bind[TO.Var] == Reg::None) {
          // Distinct variables bind distinct registers — the prover
          // assumed it when it proved the rule.
          for (unsigned V = 0; V < MaxRuleVars; ++V)
            if (Bind[V] == Super)
              return false;
          Bind[TO.Var] = Super;
        } else if (Bind[TO.Var] != Super) {
          return false;
        }
      } else if (!Op.isConstImm() || Op.Imm != TO.Value) {
        return false;
      }
    }
  }
  return true;
}

void applyWindow(PeepholeContext &Ctx, const PeepholeRule &R, BasicBlock &BB,
                 size_t I, const std::array<Reg, MaxRuleVars> &Bind) {
  for (size_t K = 0; K < R.Rep.size(); ++K)
    BB.Insns[I + K]->instruction() = renderTemplateInsn(R.Rep[K], Bind);
  for (size_t K = R.Pat.size(); K-- > R.Rep.size();) {
    Ctx.Unit.erase(BB.Insns[I + K]);
    BB.Insns.erase(BB.Insns.begin() + static_cast<long>(I + K));
  }
}

unsigned runWindowRule(PeepholeContext &Ctx, const PeepholeRule &R) {
  if (R.Pat.empty() || R.Rep.size() > R.Pat.size())
    return 0;
  unsigned Fired = 0;
  FunctionAnalysis FA(Ctx.Fn);
  for (BasicBlock &BB : FA.Graph.blocks()) {
    bool Restart = true;
    while (Restart) {
      Restart = false;
      InsnLiveness IL;
      if (R.DeadFlags)
        IL = perInstructionLiveness(FA.Graph, BB.Index, FA.Liveness);
      for (size_t I = 0; I + R.Pat.size() <= BB.Insns.size(); ++I) {
        std::array<Reg, MaxRuleVars> Bind;
        if (!matchWindowAt(R, BB, I, Bind))
          continue;
        if (R.DeadFlags &&
            (IL.FlagsLiveAfter[I + R.Pat.size() - 1] & R.DeadFlags))
          continue;
        fired(Ctx, R, BB.Insns[I]->instruction().toString());
        applyWindow(Ctx, R, BB, I, Bind);
        ++Fired;
        Restart = true; // Indices and liveness shifted; rescan the block.
        break;
      }
    }
  }
  return Fired;
}

//===----------------------------------------------------------------------===//
// Table construction and the active-table switch.
//===----------------------------------------------------------------------===//

std::vector<PeepholeRule> compileBuiltins() {
  std::vector<PeepholeRule> Rules;
#define MAO_PEEPHOLE_RULE(NameTok, GroupStr, StrategyTok, PatStr, GuardStr,   \
                          RepStr, ProvStr)                                     \
  {                                                                            \
    PeepholeRule R;                                                            \
    R.Name = #NameTok;                                                         \
    R.Group = GroupStr;                                                        \
    R.Strategy = RuleStrategy::StrategyTok;                                    \
    R.Pattern = PatStr;                                                        \
    R.Guards = GuardStr;                                                       \
    R.Replacement = RepStr;                                                    \
    R.Provenance = ProvStr;                                                    \
    if (MaoStatus S = compilePeepholeRule(R); !S.ok()) {                       \
      std::fprintf(stderr, "PeepholeRules.def: %s: %s\n", R.Name.c_str(),      \
                   S.message().c_str());                                       \
      std::abort();                                                            \
    }                                                                          \
    Rules.push_back(std::move(R));                                             \
  }
#include "passes/PeepholeRules.def"
#undef MAO_PEEPHOLE_RULE
  return Rules;
}

std::vector<PeepholeRule> &mutableActiveRules() {
  static std::vector<PeepholeRule> Rules = compileBuiltins();
  return Rules;
}

} // namespace

Instruction renderTemplateInsn(const TemplateInsn &T,
                               const std::array<Reg, MaxRuleVars> &Bind) {
  auto RenderOp = [&](const TemplateOperand &O) {
    if (O.K == TemplateOperand::Kind::RegVar)
      return Operand::makeReg(gprWithWidth(Bind[O.Var], T.W));
    return Operand::makeImm(O.Value);
  };
  switch (T.Ops.size()) {
  case 0:
    return makeInstr(T.Mn, T.W);
  case 1:
    return makeInstr(T.Mn, T.W, RenderOp(T.Ops[0]));
  default:
    return makeInstr(T.Mn, T.W, RenderOp(T.Ops[0]), RenderOp(T.Ops[1]));
  }
}

bool isWindowVocabMnemonic(Mnemonic Mn) {
  for (const VocabEntry &V : WindowVocab)
    if (V.Mn == Mn)
      return true;
  return false;
}

std::string renderWindowGuards(uint8_t DeadFlags) {
  if (!DeadFlags)
    return "";
  std::string Out = "dead-flags:";
  bool First = true;
  for (const FlagName &F : StatusFlagNames)
    if (DeadFlags & F.Bit) {
      if (!First)
        Out += '|';
      Out += F.Name;
      First = false;
    }
  return Out;
}

const char *ruleStrategyName(RuleStrategy S) {
  switch (S) {
  case RuleStrategy::EraseZeroExtend:
    return "EraseZeroExtend";
  case RuleStrategy::EraseRedundantTest:
    return "EraseRedundantTest";
  case RuleStrategy::ForwardLoad:
    return "ForwardLoad";
  case RuleStrategy::FoldImmChain:
    return "FoldImmChain";
  case RuleStrategy::Window:
    return "Window";
  }
  return "Window";
}

std::string
PeepholeRule::renderTemplates(const std::vector<TemplateInsn> &Seq) {
  std::string Out;
  for (const TemplateInsn &T : Seq) {
    if (!Out.empty())
      Out += " ; ";
    Out += opcodeInfo(T.Mn).Name;
    Out += widthSuffix(T.W);
    for (size_t O = 0; O < T.Ops.size(); ++O) {
      Out += O == 0 ? " " : ", ";
      const TemplateOperand &TO = T.Ops[O];
      if (TO.K == TemplateOperand::Kind::RegVar) {
        Out += '%';
        Out += static_cast<char>('A' + TO.Var);
      } else {
        Out += '$';
        Out += std::to_string(TO.Value);
      }
    }
  }
  return Out;
}

MaoStatus parseTemplates(std::string_view Text,
                         std::vector<TemplateInsn> &Out) {
  Out.clear();
  Text = trimmed(Text);
  while (!Text.empty()) {
    const size_t Semi = Text.find(';');
    std::string_view Part = trimmed(Text.substr(0, Semi));
    if (Part.empty())
      return MaoStatus::error("empty instruction in template sequence");
    TemplateInsn T;
    const size_t Space = Part.find(' ');
    if (MaoStatus S = parseTemplateMnemonic(
            trimmed(Part.substr(0, Space)), T.Mn, T.W);
        !S.ok())
      return S;
    if (Space != std::string_view::npos) {
      std::string_view Rest = Part.substr(Space + 1);
      while (true) {
        const size_t Comma = Rest.find(',');
        TemplateOperand O;
        if (MaoStatus S = parseTemplateOperand(Rest.substr(0, Comma), O);
            !S.ok())
          return S;
        T.Ops.push_back(O);
        if (Comma == std::string_view::npos)
          break;
        Rest = Rest.substr(Comma + 1);
      }
    }
    if (T.Ops.size() > 2)
      return MaoStatus::error("template instructions take at most 2 operands");
    Out.push_back(std::move(T));
    if (Semi == std::string_view::npos)
      break;
    Text = trimmed(Text.substr(Semi + 1));
  }
  return MaoStatus::success();
}

MaoStatus compilePeepholeRule(PeepholeRule &R) {
  if (R.Strategy != RuleStrategy::Window)
    return MaoStatus::success();
  if (MaoStatus S = parseTemplates(R.Pattern, R.Pat); !S.ok())
    return S;
  if (R.Pat.empty())
    return MaoStatus::error("window rule with empty pattern");
  if (MaoStatus S = parseTemplates(R.Replacement, R.Rep); !S.ok())
    return S;
  if (R.Rep.size() > R.Pat.size())
    return MaoStatus::error("window replacement longer than its pattern");
  if (MaoStatus S = parseWindowGuards(R.Guards, R.DeadFlags); !S.ok())
    return S;
  // Count pattern variables; the replacement may only use bound ones.
  uint32_t PatVars = 0;
  for (const TemplateInsn &T : R.Pat)
    for (const TemplateOperand &O : T.Ops)
      if (O.K == TemplateOperand::Kind::RegVar)
        PatVars |= 1u << O.Var;
  for (const TemplateInsn &T : R.Rep)
    for (const TemplateOperand &O : T.Ops)
      if (O.K == TemplateOperand::Kind::RegVar && !(PatVars & (1u << O.Var)))
        return MaoStatus::error(
            "replacement uses unbound variable %" +
            std::string(1, static_cast<char>('A' + O.Var)));
  R.NumVars = 0;
  for (unsigned V = 0; V < MaxRuleVars; ++V)
    if (PatVars & (1u << V))
      R.NumVars = V + 1;
  return MaoStatus::success();
}

const std::vector<PeepholeRule> &builtinPeepholeRules() {
  static const std::vector<PeepholeRule> Builtins = compileBuiltins();
  return Builtins;
}

const std::vector<PeepholeRule> &activePeepholeRules() {
  return mutableActiveRules();
}

MaoStatus loadSynthPeepholeRules(const std::string &DefText) {
  std::vector<PeepholeRule> Parsed;
  if (MaoStatus S = parsePeepholeRulesDef(DefText, Parsed); !S.ok())
    return S;
  std::vector<PeepholeRule> Next;
  for (const PeepholeRule &R : builtinPeepholeRules())
    if (R.Group != "synth")
      Next.push_back(R);
  for (PeepholeRule &R : Parsed)
    if (R.Group == "synth")
      Next.push_back(std::move(R));
  mutableActiveRules() = std::move(Next);
  return MaoStatus::success();
}

void resetPeepholeRules() { mutableActiveRules() = builtinPeepholeRules(); }

uint64_t peepholeRuleDigest() {
  uint64_t Hash = FnvOffsetBasis;
  auto Mix = [&Hash](std::string_view Text) {
    Hash = fnv1a64("\xff", fnv1a64(Text, Hash)); // 0xff: field separator.
  };
  for (const PeepholeRule &R : activePeepholeRules()) {
    Mix(R.Name);
    Mix(R.Group);
    Mix(ruleStrategyName(R.Strategy));
    Mix(R.Pattern);
    Mix(R.Guards);
    Mix(R.Replacement);
  }
  return Hash;
}

MaoStatus parsePeepholeRulesDef(const std::string &Text,
                                std::vector<PeepholeRule> &Out) {
  Out.clear();
  constexpr std::string_view Marker = "MAO_PEEPHOLE_RULE";
  size_t Pos = 0;
  while ((Pos = Text.find(Marker, Pos)) != std::string::npos) {
    // Skip mentions inside line comments (the rendered header names the
    // macro in prose).
    const size_t LineStart = Text.rfind('\n', Pos) + 1; // npos+1 == 0.
    if (Text.compare(LineStart, 2, "//") == 0) {
      Pos += Marker.size();
      continue;
    }
    size_t P = Pos + Marker.size();
    auto SkipSpace = [&] {
      while (P < Text.size() &&
             (Text[P] == ' ' || Text[P] == '\t' || Text[P] == '\n' ||
              Text[P] == '\r'))
        ++P;
    };
    SkipSpace();
    if (P >= Text.size() || Text[P] != '(')
      return MaoStatus::error("expected '(' after MAO_PEEPHOLE_RULE");
    ++P;
    std::vector<std::string> Fields;
    while (true) {
      SkipSpace();
      if (P >= Text.size())
        return MaoStatus::error("unterminated MAO_PEEPHOLE_RULE invocation");
      std::string Field;
      if (Text[P] == '"') {
        const size_t End = Text.find('"', P + 1);
        if (End == std::string::npos)
          return MaoStatus::error("unterminated string in rule table");
        Field = Text.substr(P + 1, End - P - 1);
        P = End + 1;
      } else {
        while (P < Text.size() &&
               (std::isalnum(static_cast<unsigned char>(Text[P])) ||
                Text[P] == '_'))
          Field += Text[P++];
        if (Field.empty())
          return MaoStatus::error("bad field in rule table near offset " +
                                  std::to_string(P));
      }
      Fields.push_back(std::move(Field));
      SkipSpace();
      if (P < Text.size() && Text[P] == ',') {
        ++P;
        continue;
      }
      if (P < Text.size() && Text[P] == ')') {
        ++P;
        break;
      }
      return MaoStatus::error("expected ',' or ')' in rule table");
    }
    if (Fields.size() != 7)
      return MaoStatus::error("MAO_PEEPHOLE_RULE takes 7 fields, got " +
                              std::to_string(Fields.size()));
    PeepholeRule R;
    R.Name = Fields[0];
    R.Group = Fields[1];
    bool KnownStrategy = false;
    for (RuleStrategy S :
         {RuleStrategy::EraseZeroExtend, RuleStrategy::EraseRedundantTest,
          RuleStrategy::ForwardLoad, RuleStrategy::FoldImmChain,
          RuleStrategy::Window}) {
      if (Fields[2] == ruleStrategyName(S)) {
        R.Strategy = S;
        KnownStrategy = true;
      }
    }
    if (!KnownStrategy)
      return MaoStatus::error("unknown rule strategy '" + Fields[2] + "'");
    R.Pattern = Fields[3];
    R.Guards = Fields[4];
    R.Replacement = Fields[5];
    R.Provenance = Fields[6];
    if (MaoStatus S = compilePeepholeRule(R); !S.ok())
      return MaoStatus::error(R.Name + ": " + S.message());
    Out.push_back(std::move(R));
    Pos = P;
  }
  return MaoStatus::success();
}

std::string renderPeepholeRulesDef(const std::vector<PeepholeRule> &Rules) {
  std::string Out =
      "//===- passes/PeepholeRules.def - Peephole rewrite rule table "
      "--------------===//\n"
      "//\n"
      "// One MAO_PEEPHOLE_RULE(Name, Group, Strategy, Pattern, Guards, "
      "Replacement,\n"
      "// Provenance) row per peephole the table-driven engine "
      "(PeepholeEngine.h)\n"
      "// can apply. Strategy rules parameterize the built-in matchers; "
      "Window\n"
      "// rules are generic adjacent rewrites in the template language and "
      "are what\n"
      "// maosynth emits. Regenerate with:\n"
      "//\n"
      "//   maosynth --synth-out=src/passes/PeepholeRules.def examples/*.s\n"
      "//\n"
      "// The synth group below is machine-generated; every row was proven\n"
      "// equivalent by the symbolic oracle, re-verified by SemanticValidator,"
      " and\n"
      "// kept only for a strict simulated-cycle win (see src/synth/Synth.h)."
      "\n"
      "//\n"
      "//===-----------------------------------------------------------------"
      "-----===//\n";
  for (const PeepholeRule &R : Rules) {
    Out += "\nMAO_PEEPHOLE_RULE(" + R.Name + ", \"" + R.Group + "\", " +
           ruleStrategyName(R.Strategy) + ",\n";
    Out += "                  \"" + R.Pattern + "\",\n";
    Out += "                  \"" + R.Guards + "\",\n";
    Out += "                  \"" + R.Replacement + "\",\n";
    Out += "                  \"" + R.Provenance + "\")\n";
  }
  return Out;
}

unsigned runPeepholeGroup(PeepholeContext &Ctx, std::string_view Group) {
  unsigned Total = 0;
  for (const PeepholeRule &R : activePeepholeRules()) {
    if (R.Group != Group)
      continue;
    switch (R.Strategy) {
    case RuleStrategy::EraseZeroExtend:
      Total += runEraseZeroExtend(Ctx, R);
      break;
    case RuleStrategy::EraseRedundantTest:
      Total += runEraseRedundantTest(Ctx, R);
      break;
    case RuleStrategy::ForwardLoad:
      Total += runForwardLoad(Ctx, R);
      break;
    case RuleStrategy::FoldImmChain:
      Total += runFoldImmChain(Ctx, R);
      break;
    case RuleStrategy::Window:
      Total += runWindowRule(Ctx, R);
      break;
    }
  }
  return Total;
}

} // namespace mao
