//===- analysis/Relaxer.cpp - Repeated relaxation ----------------------------==//

#include "analysis/Relaxer.h"

#include "support/Diag.h"
#include "support/Stats.h"

#include <any>
#include <cassert>
#include <chrono>
#include <cstdlib>

using namespace mao;

namespace {

/// Length in bytes of a quoted string literal after unescaping; returns 0
/// for malformed literals.
size_t unescapedStringLength(const std::string &Quoted) {
  if (Quoted.size() < 2 || Quoted.front() != '"' || Quoted.back() != '"')
    return 0;
  size_t Len = 0;
  for (size_t I = 1; I + 1 < Quoted.size(); ++I, ++Len) {
    if (Quoted[I] != '\\')
      continue;
    ++I;
    if (I + 1 >= Quoted.size())
      break;
    // Octal escapes consume up to three digits.
    unsigned Digits = 0;
    while (Digits < 3 && I + 1 < Quoted.size() && Quoted[I] >= '0' &&
           Quoted[I] <= '7') {
      ++I;
      ++Digits;
    }
    if (Digits > 0)
      --I; // The loop header advances once more.
  }
  return Len;
}

int64_t parseIntArg(const std::string &Text, int64_t Default = 0) {
  if (Text.empty())
    return Default;
  char *End = nullptr;
  long long V = std::strtoll(Text.c_str(), &End, 0);
  if (End == Text.c_str())
    return Default;
  return V;
}

/// Padding inserted by an alignment directive at \p Address.
unsigned alignmentPad(const Directive &Dir, int64_t Address) {
  int64_t Boundary;
  if (Dir.Kind == DirKind::P2Align) {
    int64_t Pow2 = parseIntArg(Dir.arg(0));
    if (Pow2 < 0 || Pow2 > 31)
      return 0;
    Boundary = int64_t(1) << Pow2;
  } else {
    Boundary = parseIntArg(Dir.arg(0), 1);
    if (Boundary <= 1)
      return 0;
    // .align/.balign boundaries must be powers of two; round down odd
    // values to be safe.
    while (Boundary & (Boundary - 1))
      Boundary &= Boundary - 1;
  }
  int64_t Pad = (Boundary - (Address % Boundary)) % Boundary;
  // Third argument: maximum number of padding bytes.
  if (!Dir.arg(2).empty()) {
    int64_t Max = parseIntArg(Dir.arg(2), -1);
    if (Max >= 0 && Pad > Max)
      return 0;
  }
  return static_cast<unsigned>(Pad);
}

} // namespace

unsigned mao::entryLayoutSize(const MaoEntry &Entry, int64_t Address) {
  if (Entry.isLabel())
    return 0;
  if (Entry.isInstruction())
    return instructionLength(Entry.instruction());
  const Directive &Dir = Entry.directive();
  switch (Dir.Kind) {
  case DirKind::P2Align:
  case DirKind::Balign:
    return alignmentPad(Dir, Address);
  case DirKind::Byte:
    return static_cast<unsigned>(Dir.Args.size());
  case DirKind::Word:
    return static_cast<unsigned>(2 * Dir.Args.size());
  case DirKind::Long:
    return static_cast<unsigned>(4 * Dir.Args.size());
  case DirKind::Quad:
    return static_cast<unsigned>(8 * Dir.Args.size());
  case DirKind::Zero:
    return static_cast<unsigned>(parseIntArg(Dir.arg(0)));
  case DirKind::String:
  case DirKind::Asciz:
    return static_cast<unsigned>(unescapedStringLength(Dir.arg(0)) + 1);
  case DirKind::Ascii:
    return static_cast<unsigned>(unescapedStringLength(Dir.arg(0)));
  default:
    return 0;
  }
}

const LabelAddressMap &
RelaxationResult::sectionLabels(const std::string &SectionName) const {
  static const LabelAddressMap Empty;
  auto It = SectionLabels.find(SectionName);
  return It == SectionLabels.end() ? Empty : It->second;
}

namespace {
/// Process-global mode; set once at startup from --mao-relax, before any
/// pipeline runs, so there is no synchronization concern.
RelaxMode GlobalRelaxMode = RelaxMode::Grow;
} // namespace

RelaxMode mao::relaxMode() { return GlobalRelaxMode; }
void mao::setRelaxMode(RelaxMode Mode) { GlobalRelaxMode = Mode; }

bool mao::parseRelaxMode(const std::string &Text, RelaxMode &Mode) {
  if (Text == "grow") {
    Mode = RelaxMode::Grow;
    return true;
  }
  if (Text == "optimal") {
    Mode = RelaxMode::Optimal;
    return true;
  }
  return false;
}

namespace {

/// Relaxes \p Unit from scratch into \p Result (which must be empty).
void relaxCold(MaoUnit &Unit, DiagEngine *Diags, RelaxationResult &Result) {
  // Reset branch sizes optimistically: every direct jump starts rel8 and
  // grows as needed. (Calls are rel32 by construction.)
  for (MaoEntry &E : Unit.entries()) {
    if (!E.isInstruction())
      continue;
    Instruction &Insn = E.instruction();
    if (Insn.isBranch() && !Insn.hasIndirectTarget())
      Insn.BranchSize = 1;
  }

  // Pre-compute the layout walk. Only two kinds of entry have an
  // address- or iteration-dependent size — alignment pads and direct
  // branches — so everything else is measured once here instead of being
  // re-encoded on every relaxation round (instruction lengths dominate the
  // cost of a round). Label and branch-target names are captured as
  // string_view keys once, so the per-round map operations allocate no
  // strings at all.
  struct Slot {
    MaoEntry *E;
    unsigned StaticSize; ///< Valid when !Dynamic.
    bool Dynamic;
    bool IsLabel;
    std::string_view LabelKey;  ///< Label name; valid when IsLabel.
    const Operand *Target;      ///< Branch target; valid for dynamic insns.
    std::string_view TargetSym; ///< Target symbol; valid for dynamic insns.
  };
  std::vector<std::pair<SectionInfo *, std::vector<Slot>>> Walk;
  for (SectionInfo &Sec : Unit.sections()) {
    std::vector<Slot> Slots;
    for (const MaoFunction::Range &R : Sec.Ranges)
      for (EntryIter It = R.Begin; It != R.End; ++It) {
        Slot S;
        S.E = &*It;
        S.Dynamic = false;
        S.Target = nullptr;
        if (It->isInstruction()) {
          const Instruction &Insn = It->instruction();
          S.Dynamic = Insn.isBranch() && !Insn.hasIndirectTarget();
          if (S.Dynamic) {
            S.Target = Insn.branchTarget();
            assert(S.Target && S.Target->isSymbol() &&
                   "direct branch without target");
            S.TargetSym = S.Target->Sym;
          }
        } else if (It->isDirective()) {
          DirKind K = It->directive().Kind;
          S.Dynamic = K == DirKind::P2Align || K == DirKind::Balign;
        }
        // Every defined label participates in displacement resolution,
        // global or not: a branch to a symbol defined in this very unit
        // has a known distance, so pessimizing it to rel32 just because
        // it is exported would leave relaxation over-conservative. Truly
        // external symbols are simply absent from the maps.
        S.IsLabel = It->isLabel();
        if (S.IsLabel)
          S.LabelKey = It->labelName();
        S.StaticSize = S.Dynamic ? 0 : entryLayoutSize(*It, 0);
        Slots.push_back(S);
      }
    Walk.emplace_back(&Sec, std::move(Slots));
  }

  std::string LastGrowthSection;

  // One address-assignment round over every section. Addresses restart at
  // 0 per section, so each section gets its own label map; the flat view
  // is kept for same-section-aware callers. Duplicate label definitions
  // bind to the FIRST occurrence (try_emplace), matching MaoUnit::labelMap
  // and the emulator.
  auto AddressRound = [&] {
    Result.Labels.clear();
    Result.SectionLabels.clear();
    Result.SectionSizes.clear();
    for (auto &[Sec, Slots] : Walk) {
      LabelAddressMap &SecLabels = Result.SectionLabels[Sec->Name];
      int64_t Address = 0;
      for (const Slot &S : Slots) {
        MaoEntry &E = *S.E;
        E.Address = Address;
        E.Size = S.Dynamic ? entryLayoutSize(E, Address) : S.StaticSize;
        if (S.IsLabel) {
          SecLabels.try_emplace(S.LabelKey, Address);
          Result.Labels.try_emplace(S.LabelKey, Address);
        }
        Address += E.Size;
      }
      Result.SectionSizes[Sec->Name] = Address;
    }
  };

  // One growth round: widen branches whose rel8 displacement no longer
  // fits. Resolution is per section: a displacement between two sections
  // would span unrelated address spaces, so cross-section targets — like
  // truly external ones — are absent from the branch's map and force rel32
  // (resolved by relocation, where the distance is actually known).
  auto GrowthRound = [&]() -> bool {
    bool Changed = false;
    for (auto &[Sec, Slots] : Walk) {
      const LabelAddressMap &SecLabels = Result.SectionLabels[Sec->Name];
      for (const Slot &S : Slots) {
        if (!S.Dynamic || !S.E->isInstruction())
          continue;
        MaoEntry &E = *S.E;
        Instruction &Insn = E.instruction();
        if (Insn.BranchSize != 1)
          continue;
        auto LabelIt = SecLabels.find(S.TargetSym);
        if (LabelIt == SecLabels.end()) {
          // External or cross-section target: must use rel32.
          Insn.BranchSize = 4;
          Changed = true;
          LastGrowthSection = Sec->Name;
          continue;
        }
        int64_t Disp =
            LabelIt->second + S.Target->Imm - (E.Address + E.Size);
        if (Disp < -128 || Disp > 127) {
          Insn.BranchSize = 4;
          Changed = true;
          LastGrowthSection = Sec->Name;
        }
      }
    }
    return Changed;
  };

  // Converge from the current branch-size state. Monotone (branches only
  // grow), so it terminates; the shared iteration budget bounds the
  // pathological case.
  auto Converge = [&]() -> bool {
    while (Result.Iterations < RelaxationIterationLimit) {
      ++Result.Iterations;
      AddressRound();
      if (!GrowthRound())
        return true;
    }
    return false;
  };

  Result.Converged = Converge();

  if (Result.Converged && relaxMode() == RelaxMode::Optimal) {
    // Minimality audit: the grow fixpoint can be conservatively large when
    // alignment padding decouples displacement from branch sizes. Demote
    // every rel32 branch whose displacement fits rel8 under the settled
    // layout, then re-converge (which re-promotes any overreach); repeat
    // until a round demotes nothing. Bounded to keep the worst case tame.
    auto CountRel8 = [&] {
      unsigned N = 0;
      for (auto &[Sec, Slots] : Walk)
        for (const Slot &S : Slots)
          if (S.Dynamic && S.E->isInstruction() &&
              S.E->instruction().BranchSize == 1)
            ++N;
      return N;
    };
    const unsigned InitialRel8 = CountRel8();
    constexpr unsigned AuditRoundLimit = 4;
    for (unsigned Round = 0; Round < AuditRoundLimit; ++Round) {
      bool Shrunk = false;
      for (auto &[Sec, Slots] : Walk) {
        const LabelAddressMap &SecLabels = Result.SectionLabels[Sec->Name];
        for (const Slot &S : Slots) {
          if (!S.Dynamic || !S.E->isInstruction())
            continue;
          MaoEntry &E = *S.E;
          Instruction &Insn = E.instruction();
          if (Insn.BranchSize != 4)
            continue;
          auto LabelIt = SecLabels.find(S.TargetSym);
          if (LabelIt == SecLabels.end())
            continue; // External/cross-section: rel32 is mandatory.
          const unsigned Rel32Size = E.Size;
          Insn.BranchSize = 1;
          const unsigned Rel8Size = instructionLength(Insn);
          const unsigned Delta = Rel32Size - Rel8Size;
          const int64_t Target = LabelIt->second + S.Target->Imm;
          // Exact single-demotion displacement: a forward target moves
          // down by Delta together with the branch end, a backward target
          // gains Delta of slack from the shorter branch.
          int64_t NewDisp = Target - (E.Address + Rel32Size);
          if (Target <= E.Address)
            NewDisp += Delta;
          if (NewDisp >= -128 && NewDisp <= 127) {
            Shrunk = true;
          } else {
            Insn.BranchSize = 4;
          }
        }
      }
      if (!Shrunk)
        break;
      if (!Converge()) {
        Result.Converged = false;
        break;
      }
    }
    if (Result.Converged) {
      const unsigned FinalRel8 = CountRel8();
      Result.ShrunkBranches =
          FinalRel8 > InitialRel8 ? FinalRel8 - InitialRel8 : 0;
    }
  }

  if (Result.Converged)
    return;

  // Hit the iteration limit; addresses are best-effort and must not be
  // trusted silently — report which section was still growing, and let the
  // verifier's layout check turn !Converged into a hard error.
  if (Diags)
    Diags->warning(DiagCode::RelaxIterationLimit,
                   "relaxation of section " + LastGrowthSection +
                       " did not converge within " +
                       std::to_string(RelaxationIterationLimit) +
                       " iterations; branch sizes are best-effort");
}

/// What relaxUnit keeps in MaoUnit::layoutCache(): the last result and the
/// (generation, mode) it is valid for.
struct RelaxCache {
  RelaxationResult Result;
  uint64_t Generation = 0;
  RelaxMode Mode = RelaxMode::Grow;
  bool Valid = false;
};

RelaxCache *cacheOf(MaoUnit &Unit) {
  return std::any_cast<RelaxCache>(&Unit.layoutCache());
}

} // namespace

bool mao::layoutIsCached(MaoUnit &Unit) {
  const RelaxCache *C = cacheOf(Unit);
  return C && C->Valid && C->Generation == Unit.layoutGeneration() &&
         C->Mode == relaxMode();
}

const RelaxationResult &mao::relaxUnit(MaoUnit &Unit, DiagEngine *Diags) {
  StatsRegistry &Stats = StatsRegistry::instance();
  static StatCounter &Calls = Stats.counter("relax.calls");
  static StatCounter &Cold = Stats.counter("relax.cold");
  static StatCounter &Cached = Stats.counter("relax.cached");
  static StatCounter &Iterations = Stats.counter("relax.iterations");
  static StatCounter &TimeUs = Stats.counter("time.relax_us");
  Calls.add();
  if (layoutIsCached(Unit)) {
    // Relaxation is a deterministic function of the layout, so an
    // unchanged generation reproduces the cached result byte for byte —
    // and every entry still carries the Address/Size/BranchSize it wrote.
    Cached.add();
    return cacheOf(Unit)->Result;
  }

  const auto Start = std::chrono::steady_clock::now();
  RelaxCache *Slot = cacheOf(Unit);
  RelaxCache &C = Slot ? *Slot : Unit.layoutCache().emplace<RelaxCache>();
  C.Result = RelaxationResult();
  relaxCold(Unit, Diags, C.Result);
  // Read the generation only now: the walk may have rebuilt stale views.
  // A non-converged result is never served again, so the caller of the
  // next relax sees the iteration-limit warning too.
  C.Generation = Unit.layoutGeneration();
  C.Mode = relaxMode();
  C.Valid = C.Result.Converged;
  Cold.add();
  Iterations.add(C.Result.Iterations);
  TimeUs.add(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - Start)
          .count()));
  return C.Result;
}
