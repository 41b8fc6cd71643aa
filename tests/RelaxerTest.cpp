//===- tests/RelaxerTest.cpp - Repeated relaxation tests --------------------==//

#include "analysis/Relaxer.h"
#include "asm/AsmEmitter.h"
#include "asm/Assembler.h"
#include "asm/Parser.h"
#include "ir/Verifier.h"
#include "pass/MaoPass.h"
#include "serve/ArtifactCache.h"
#include "support/Diag.h"
#include "support/Stats.h"
#include "workload/Workload.h"

#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <tuple>

using namespace mao;

namespace {

MaoUnit parseOk(const std::string &Text) {
  auto UnitOr = parseAssembly(Text);
  EXPECT_TRUE(UnitOr.ok());
  return std::move(*UnitOr);
}

/// Builds the paper's Sec. II relaxation example: a forward jump over
/// \p FillerPairs add/sub pairs (8 bytes each) to a cmpl/jne tail.
std::string paperExample(unsigned FillerPairs, bool WithNop) {
  std::string S;
  S += "\t.text\n";
  S += "\t.type main, @function\n";
  S += "main:\n";
  S += "\tpushq %rbp\n";
  S += "\tmovq %rsp, %rbp\n";
  S += "\tmovl $5, -4(%rbp)\n";
  S += "\tjmp .LTAIL\n";
  S += ".LBODY:\n";
  for (unsigned I = 0; I < FillerPairs; ++I) {
    S += "\taddl $1, -4(%rbp)\n";
    S += "\tsubl $1, -4(%rbp)\n";
  }
  if (WithNop)
    S += "\tnop\n";
  S += ".LTAIL:\n";
  S += "\tcmpl $0, -4(%rbp)\n";
  S += "\tjne .LBODY\n";
  S += "\tret\n";
  S += "\t.size main, .-main\n";
  return S;
}

const MaoEntry *findInsn(const MaoUnit &Unit, Mnemonic Mn, unsigned Skip = 0) {
  for (const MaoEntry &E : Unit.entries())
    if (E.isInstruction() && E.instruction().Mn == Mn) {
      if (Skip == 0)
        return &E;
      --Skip;
    }
  return nullptr;
}

TEST(Relaxer, PaperExampleShortForm) {
  // 15 filler pairs: 0xb (jmp addr) .. target fits in rel8 (disp 0x78).
  MaoUnit Unit = parseOk(paperExample(15, /*WithNop=*/false));
  RelaxationResult R = relaxUnit(Unit);
  ASSERT_TRUE(R.Converged);
  const MaoEntry *Jmp = findInsn(Unit, Mnemonic::JMP);
  ASSERT_NE(Jmp, nullptr);
  EXPECT_EQ(Jmp->instruction().BranchSize, 1);
  EXPECT_EQ(Jmp->Size, 2u);
  EXPECT_EQ(Jmp->Address, 0xb);
  // .LTAIL = 0xb + 2 + 15*8 = 0x85.
  EXPECT_EQ(R.Labels.at(".LTAIL"), 0x85);
}

TEST(Relaxer, PaperExampleGrowsOnNopInsertion) {
  // 15 pairs put .LTAIL at 0x85 (disp 0x78, fits). One extra nop pushes the
  // displacement to 0x79... still fits; the paper's cliff is at disp > 0x7f.
  // Use 16 pairs (disp 0x80) to cross the boundary exactly.
  MaoUnit Short = parseOk(paperExample(15, false));
  RelaxationResult RS = relaxUnit(Short);
  ASSERT_TRUE(RS.Converged);
  EXPECT_EQ(findInsn(Short, Mnemonic::JMP)->Size, 2u);

  MaoUnit Long = parseOk(paperExample(16, false));
  RelaxationResult RL = relaxUnit(Long);
  ASSERT_TRUE(RL.Converged);
  const MaoEntry *Jmp = findInsn(Long, Mnemonic::JMP);
  EXPECT_EQ(Jmp->instruction().BranchSize, 4);
  EXPECT_EQ(Jmp->Size, 5u); // e9 + rel32, exactly the paper's 2 -> 5 growth
  EXPECT_GT(RL.Iterations, 1u);
}

TEST(Relaxer, BackwardBranchStaysShort) {
  MaoUnit Unit = parseOk(paperExample(4, false));
  RelaxationResult R = relaxUnit(Unit);
  ASSERT_TRUE(R.Converged);
  const MaoEntry *Jne = findInsn(Unit, Mnemonic::JCC);
  ASSERT_NE(Jne, nullptr);
  EXPECT_EQ(Jne->instruction().BranchSize, 1);
}

TEST(Relaxer, CascadingGrowth) {
  // Two branches where growing the first pushes the second out of range:
  // requires more than two iterations in total.
  std::string S = "\t.text\n\t.type f, @function\nf:\n";
  S += "\tjmp .LA\n"; // at 0; .LA at ~126 boundary
  S += "\tjmp .LB\n";
  for (int I = 0; I < 15; ++I)
    S += "\taddl $1, -4(%rbp)\n\tsubl $1, -4(%rbp)\n"; // 8 bytes/pair
  S += ".LA:\n";
  S += "\tret\n";
  S += ".LB:\n";
  S += "\tret\n";
  S += "\t.size f, .-f\n";
  MaoUnit Unit = parseOk(S);
  RelaxationResult R = relaxUnit(Unit);
  ASSERT_TRUE(R.Converged);
  // .LA: first jmp disp = 2 + 120 = 122 from end of first jmp -> fits.
  // .LB is one byte further for the second jmp... construct just checks
  // convergence and consistency here:
  for (const MaoEntry &E : Unit.entries())
    if (E.isInstruction())
      EXPECT_GE(E.Address, 0);
}

TEST(Relaxer, P2AlignPadding) {
  std::string S = "\t.text\n\t.type f, @function\nf:\n";
  S += "\tret\n";             // 1 byte at 0
  S += "\t.p2align 4,,15\n";  // pad to 16
  S += ".LX:\n";
  S += "\tret\n";
  S += "\t.size f, .-f\n";
  MaoUnit Unit = parseOk(S);
  RelaxationResult R = relaxUnit(Unit);
  ASSERT_TRUE(R.Converged);
  EXPECT_EQ(R.Labels.at(".LX"), 16);
}

TEST(Relaxer, P2AlignMaxSkipsPadding) {
  std::string S = "\t.text\n\t.type f, @function\nf:\n";
  S += "\tret\n";            // 1 byte
  S += "\t.p2align 4,,7\n";  // would need 15 > max 7: no padding
  S += ".LX:\n";
  S += "\tret\n";
  S += "\t.size f, .-f\n";
  MaoUnit Unit = parseOk(S);
  RelaxationResult R = relaxUnit(Unit);
  ASSERT_TRUE(R.Converged);
  EXPECT_EQ(R.Labels.at(".LX"), 1);
}

TEST(Relaxer, AlreadyAlignedNeedsNoPad) {
  std::string S = "\t.text\n\t.p2align 4\n.LX:\n\tret\n";
  MaoUnit Unit = parseOk(S);
  RelaxationResult R = relaxUnit(Unit);
  EXPECT_EQ(R.Labels.at(".LX"), 0);
}

TEST(Relaxer, DataDirectiveSizes) {
  std::string S = "\t.section .rodata\n";
  S += ".LT:\n";
  S += "\t.quad 1, 2, 3\n";
  S += "\t.long 7\n";
  S += "\t.byte 1, 2\n";
  S += "\t.zero 10\n";
  S += "\t.string \"ab\\n\"\n";
  S += ".LEND:\n";
  MaoUnit Unit = parseOk(S);
  RelaxationResult R = relaxUnit(Unit);
  ASSERT_TRUE(R.Converged);
  // 24 + 4 + 2 + 10 + 4 ("ab\n" + NUL) = 44.
  EXPECT_EQ(R.Labels.at(".LEND"), 44);
}

TEST(Relaxer, ExternalTargetsUseRel32) {
  MaoUnit Unit = parseOk("\t.text\n\tjmp external_fn\n");
  RelaxationResult R = relaxUnit(Unit);
  ASSERT_TRUE(R.Converged);
  const MaoEntry *Jmp = findInsn(Unit, Mnemonic::JMP);
  EXPECT_EQ(Jmp->instruction().BranchSize, 4);
}

TEST(Relaxer, ForwardRel8Boundary) {
  // +127 is the last forward displacement rel8 can encode: a 2-byte jmp at
  // 0 followed by 127 bytes of filler puts the target exactly at disp 127.
  MaoUnit Fit = parseOk("\t.text\n\tjmp .LT\n\t.zero 127\n.LT:\n\tret\n");
  RelaxationResult RF = relaxUnit(Fit);
  ASSERT_TRUE(RF.Converged);
  EXPECT_EQ(findInsn(Fit, Mnemonic::JMP)->instruction().BranchSize, 1);
  EXPECT_EQ(findInsn(Fit, Mnemonic::JMP)->Size, 2u);

  // One more byte (disp 128) crosses the cliff.
  MaoUnit Grow = parseOk("\t.text\n\tjmp .LT\n\t.zero 128\n.LT:\n\tret\n");
  RelaxationResult RG = relaxUnit(Grow);
  ASSERT_TRUE(RG.Converged);
  EXPECT_EQ(findInsn(Grow, Mnemonic::JMP)->instruction().BranchSize, 4);
  EXPECT_EQ(findInsn(Grow, Mnemonic::JMP)->Size, 5u);
}

TEST(Relaxer, BackwardRel8Boundary) {
  // -128 is the furthest backward displacement rel8 can encode: the 2-byte
  // jmp ends at 128, so the target at 0 sits exactly at disp -128.
  MaoUnit Fit = parseOk("\t.text\n.LT:\n\t.zero 126\n\tjmp .LT\n");
  RelaxationResult RF = relaxUnit(Fit);
  ASSERT_TRUE(RF.Converged);
  EXPECT_EQ(findInsn(Fit, Mnemonic::JMP)->instruction().BranchSize, 1);

  // One more filler byte (disp -129) forces rel32.
  MaoUnit Grow = parseOk("\t.text\n.LT:\n\t.zero 127\n\tjmp .LT\n");
  RelaxationResult RG = relaxUnit(Grow);
  ASSERT_TRUE(RG.Converged);
  EXPECT_EQ(findInsn(Grow, Mnemonic::JMP)->instruction().BranchSize, 4);
}

TEST(Relaxer, GlobalTargetDefinedLocallyStaysShort) {
  // A .globl symbol defined in this unit has a known distance; exporting
  // it must not pessimize nearby branches to rel32 (the pre-fix behavior
  // excluded every global from the label map).
  std::string S = "\t.text\n\t.globl g\n\tjmp g\n\t.zero 16\ng:\n\tret\n";
  MaoUnit Unit = parseOk(S);
  RelaxationResult R = relaxUnit(Unit);
  ASSERT_TRUE(R.Converged);
  EXPECT_EQ(findInsn(Unit, Mnemonic::JMP)->instruction().BranchSize, 1);
  EXPECT_EQ(R.Labels.at("g"), 18);
}

TEST(Relaxer, CrossSectionTargetUsesRel32) {
  // Section addresses restart at 0, so a displacement computed across
  // sections would compare unrelated address spaces. The target must be
  // absent from the branch's per-section map and the branch forced to
  // rel32 (the linker knows the real distance via relocation).
  std::string S = "\t.text\n\tjmp .LCOLD\n\tret\n";
  S += "\t.section .text.unlikely\n.LCOLD:\n\tret\n";
  MaoUnit Unit = parseOk(S);
  RelaxationResult R = relaxUnit(Unit);
  ASSERT_TRUE(R.Converged);
  EXPECT_EQ(findInsn(Unit, Mnemonic::JMP)->instruction().BranchSize, 4);
  EXPECT_EQ(R.sectionLabels(".text.unlikely").at(".LCOLD"), 0);
  EXPECT_EQ(R.sectionLabels(".text").count(".LCOLD"), 0u);
}

/// Builds a chain of forward jumps where each relaxation round grows
/// exactly one more branch: J_i targets .L_i, which sits right after
/// J_{i+1}, across 125 filler bytes — disp_i = 125 + len(J_{i+1}), i.e. a
/// rel8-fitting 127 until J_{i+1} grows to 5 bytes. The last jump's target
/// is 128 bytes away, seeding the cascade. With \p Jumps >
/// RelaxationIterationLimit the fixpoint cannot be reached in time.
std::string growthCascade(unsigned Jumps) {
  std::string S = "\t.text\n";
  for (unsigned I = 1; I <= Jumps; ++I) {
    S += "\tjmp .L" + std::to_string(I) + "\n";
    if (I > 1)
      S += ".L" + std::to_string(I - 1) + ":\n";
    if (I < Jumps)
      S += "\t.zero 125\n";
  }
  S += "\t.zero 128\n";
  S += ".L" + std::to_string(Jumps) + ":\n";
  S += "\tret\n";
  return S;
}

TEST(Relaxer, IterationLimitEmitsDiagnostic) {
  MaoUnit Unit = parseOk(growthCascade(RelaxationIterationLimit + 1));

  DiagEngine Diags;
  CollectingDiagSink Sink;
  Diags.addSink(&Sink);
  RelaxationResult R = relaxUnit(Unit, &Diags);
  EXPECT_FALSE(R.Converged);
  EXPECT_EQ(R.Iterations, RelaxationIterationLimit);

  // The limit is reported as a structured warning naming the section that
  // was still growing and the iteration budget.
  ASSERT_EQ(Diags.warningCount(), 1u);
  ASSERT_EQ(Sink.diagnostics().size(), 1u);
  const Diagnostic &D = Sink.diagnostics()[0];
  EXPECT_EQ(D.Severity, DiagSeverity::Warning);
  EXPECT_EQ(D.Code, DiagCode::RelaxIterationLimit);
  EXPECT_NE(D.Message.find(".text"), std::string::npos);
  EXPECT_NE(D.Message.find(std::to_string(RelaxationIterationLimit)),
            std::string::npos);

  // Non-converged layout is a hard error in the verifier's layout check:
  // best-effort addresses must never flow into emitted bytes silently.
  VerifierReport Report = verifyUnit(Unit);
  ASSERT_FALSE(Report.clean());
  bool SawDiverged = false;
  for (const Diagnostic &Issue : Report.Issues)
    SawDiverged |= Issue.Code == DiagCode::VerifyRelaxationDiverged;
  EXPECT_TRUE(SawDiverged);
}

TEST(Relaxer, CascadeJustUnderLimitConverges) {
  // The same construction one jump shorter needs exactly
  // RelaxationIterationLimit rounds and must still converge with every
  // branch widened.
  MaoUnit Unit = parseOk(growthCascade(RelaxationIterationLimit - 1));
  RelaxationResult R = relaxUnit(Unit);
  ASSERT_TRUE(R.Converged);
  EXPECT_EQ(R.Iterations, RelaxationIterationLimit);
  for (const MaoEntry &E : Unit.entries())
    if (E.isInstruction() && E.instruction().Mn == Mnemonic::JMP) {
      EXPECT_EQ(E.instruction().BranchSize, 4);
    }
}

// --- Optimal branch-displacement mode (--mao-relax=optimal) -----------------

/// RAII guard: flips the process-global relax mode and restores it, so a
/// failing test cannot leak Optimal into unrelated tests.
struct ScopedRelaxMode {
  explicit ScopedRelaxMode(RelaxMode M) : Saved(relaxMode()) {
    setRelaxMode(M);
  }
  ~ScopedRelaxMode() { setRelaxMode(Saved); }
  RelaxMode Saved;
};

TEST(Relaxer, OptimalAgreesWithGrowOnAlignmentFreeLayout) {
  // Without alignment padding the grow fixpoint is already minimal; the
  // optimal audit must find nothing to shrink and reproduce the layout
  // byte-for-byte.
  MaoUnit GrowUnit = parseOk(paperExample(16, true));
  RelaxationResult RG;
  {
    ScopedRelaxMode M(RelaxMode::Grow);
    RG = relaxUnit(GrowUnit);
  }
  ASSERT_TRUE(RG.Converged);

  MaoUnit OptUnit = parseOk(paperExample(16, true));
  RelaxationResult RO;
  {
    ScopedRelaxMode M(RelaxMode::Optimal);
    RO = relaxUnit(OptUnit);
  }
  ASSERT_TRUE(RO.Converged);
  EXPECT_EQ(RO.ShrunkBranches, 0u);
  EXPECT_EQ(RO.Labels, RG.Labels);
  EXPECT_EQ(RO.SectionSizes.at(".text"), RG.SectionSizes.at(".text"));
}

TEST(Relaxer, OptimalModePassesLayoutVerifierAndAssembler) {
  ScopedRelaxMode M(RelaxMode::Optimal);
  MaoUnit Unit = parseOk(paperExample(40, true));
  RelaxationResult R = relaxUnit(Unit);
  ASSERT_TRUE(R.Converged);
  VerifierReport Report = verifyUnit(Unit);
  EXPECT_TRUE(Report.clean()) << Report.firstMessage();
  auto BytesOr = assembleUnit(Unit);
  ASSERT_TRUE(BytesOr.ok()) << BytesOr.message();
  EXPECT_EQ(static_cast<int64_t>(BytesOr->at(".text").size()),
            R.SectionSizes.at(".text"));
}

TEST(Relaxer, ParseRelaxModeSpellings) {
  RelaxMode Mode = RelaxMode::Grow;
  EXPECT_TRUE(parseRelaxMode("optimal", Mode));
  EXPECT_EQ(Mode, RelaxMode::Optimal);
  EXPECT_TRUE(parseRelaxMode("grow", Mode));
  EXPECT_EQ(Mode, RelaxMode::Grow);
  EXPECT_FALSE(parseRelaxMode("fastest", Mode));
}

// --- Layout generation: when relaxUnit may reuse its last result ----------

uint64_t statValue(const char *Name) {
  return StatsRegistry::instance().counter(Name).value();
}

MaoUnit sampleUnit() { return parseOk(paperExample(15, /*WithNop=*/false)); }

/// Relaxes \p Unit so its cached layout is current.
void relaxNow(MaoUnit &Unit) {
  ASSERT_TRUE(relaxUnit(Unit).Converged);
  ASSERT_TRUE(layoutIsCached(Unit));
}

EntryIter firstInsn(MaoUnit &Unit) {
  EntryIter It = Unit.entries().begin();
  while (!It->isInstruction())
    ++It;
  return It;
}

TEST(RelaxerCache, EveryEditorDirtiesTheLayout) {
  using Edit = std::function<void(MaoUnit &)>;
  const std::pair<const char *, Edit> Edits[] = {
      {"append",
       [](MaoUnit &U) { U.append(MaoEntry::makeInstruction(makeNop(1))); }},
      {"emplaceBack", [](MaoUnit &U) { U.emplaceBack(makeNop(1)); }},
      {"insertBefore",
       [](MaoUnit &U) {
         U.insertBefore(firstInsn(U), MaoEntry::makeInstruction(makeNop(1)));
       }},
      {"insertAfter",
       [](MaoUnit &U) {
         U.insertAfter(firstInsn(U), MaoEntry::makeInstruction(makeNop(1)));
       }},
      {"erase", [](MaoUnit &U) { U.erase(firstInsn(U)); }},
      {"moveRange",
       [](MaoUnit &U) {
         EntryIter First = firstInsn(U);
         U.moveRange(First, std::next(First), U.entries().end());
       }},
      {"rebuildStructure", [](MaoUnit &U) { U.rebuildStructure(); }},
      {"markLayoutDirty", [](MaoUnit &U) { U.markLayoutDirty(); }},
      {"move-assign", [](MaoUnit &U) { U = sampleUnit(); }},
  };
  for (const auto &[Name, Apply] : Edits) {
    MaoUnit Unit = sampleUnit();
    relaxNow(Unit);
    const uint64_t Before = Unit.layoutGeneration();
    Apply(Unit);
    EXPECT_NE(Unit.layoutGeneration(), Before) << Name;
    EXPECT_FALSE(layoutIsCached(Unit)) << Name;
  }
  // A clone starts cold, and so does the unit a move left behind.
  MaoUnit Unit = sampleUnit();
  relaxNow(Unit);
  MaoUnit Copy = Unit.clone();
  EXPECT_FALSE(layoutIsCached(Copy));
  MaoUnit Taken = std::move(Unit);
  EXPECT_FALSE(layoutIsCached(Taken));
}

TEST(RelaxerCache, UnchangedUnitIsServedFromTheCache) {
  MaoUnit Unit = sampleUnit();
  relaxNow(Unit);
  std::vector<std::tuple<int64_t, uint32_t, uint8_t>> Cold;
  for (const MaoEntry &E : Unit.entries())
    Cold.emplace_back(E.Address, E.Size,
                      E.isInstruction() ? E.instruction().BranchSize : 0);
  const RelaxationResult ColdResult = relaxUnit(Unit);

  const uint64_t ColdRuns = statValue("relax.cold");
  const uint64_t Served = statValue("relax.cached");
  const RelaxationResult &Again = relaxUnit(Unit);
  EXPECT_EQ(statValue("relax.cold"), ColdRuns);
  EXPECT_EQ(statValue("relax.cached"), Served + 1);
  EXPECT_TRUE(Again.Converged);
  EXPECT_EQ(Again.Iterations, ColdResult.Iterations);
  EXPECT_EQ(Again.Labels, ColdResult.Labels);
  EXPECT_EQ(Again.SectionSizes, ColdResult.SectionSizes);
  size_t I = 0;
  for (const MaoEntry &E : Unit.entries())
    EXPECT_EQ(std::make_tuple(E.Address, E.Size,
                              E.isInstruction() ? E.instruction().BranchSize
                                                : uint8_t(0)),
              Cold[I++]);

  // Switching the relax mode is a different question: relax again.
  ScopedRelaxMode M(RelaxMode::Optimal);
  EXPECT_FALSE(layoutIsCached(Unit));
  relaxUnit(Unit);
  EXPECT_EQ(statValue("relax.cold"), ColdRuns + 1);
}

TEST(RelaxerCache, NonConvergedResultIsNeverCached) {
  MaoUnit Unit = parseOk(growthCascade(RelaxationIterationLimit + 1));
  DiagEngine Diags;
  for (int I = 0; I < 2; ++I) {
    EXPECT_FALSE(relaxUnit(Unit, &Diags).Converged);
    EXPECT_FALSE(layoutIsCached(Unit));
  }
  // Both calls relaxed, so both warned.
  EXPECT_EQ(Diags.warningCount(), 2u);
}

TEST(RelaxerCache, VerifierReportsEditThatSkippedTheDirtyMark) {
  MaoUnit Unit = sampleUnit();
  relaxNow(Unit);
  // Widen an immediate in place (imm8 -> imm32 grows the add by 3 bytes)
  // without telling the unit: its cached layout is now a lie.
  for (MaoEntry &E : Unit.entries())
    if (E.isInstruction() && E.instruction().Mn == Mnemonic::ADD) {
      E.instruction().Ops[0] = Operand::makeImm(100000);
      break;
    }
  VerifierReport Report = verifyUnit(Unit);
  bool SawStale = false;
  for (const Diagnostic &Issue : Report.Issues)
    SawStale |= Issue.Code == DiagCode::VerifyLayoutStale;
  EXPECT_TRUE(SawStale) << Report.firstMessage();

  // The same edit, declared, verifies clean.
  MaoUnit Declared = sampleUnit();
  relaxNow(Declared);
  for (MaoEntry &E : Declared.entries())
    if (E.isInstruction() && E.instruction().Mn == Mnemonic::ADD) {
      E.instruction().Ops[0] = Operand::makeImm(100000);
      break;
    }
  Declared.markLayoutDirty();
  VerifierReport Clean = verifyUnit(Declared);
  EXPECT_TRUE(Clean.clean()) << Clean.firstMessage();
}

// --- Byte-identity pins for the relaxing passes -----------------------------

/// bench_branch_alias's kernel: two short loops whose back branches share
/// a 32-byte predictor bucket until BRALIGN pads between them.
std::string branchAliasKernel() {
  std::string S;
  S += "\t.text\n\t.globl bench_main\n\t.type bench_main, @function\n";
  S += "bench_main:\n\tpushq %rbp\n\tmovq %rsp, %rbp\n";
  S += "\tmovl $200000, %ecx\n.LWORK:\n";
  S += "\timull $3, %eax, %eax\n\timull $5, %eax, %eax\n";
  S += "\tsubl $1, %ecx\n\tjne .LWORK\n";
  S += "\tmovl $800, %r15d\n\t.p2align 5\n.LOUTER:\n";
  S += "\tmovl $1, %ecx\n.LI1:\n\taddl $1, %eax\n\tsubl $1, %ecx\n";
  S += "\tjne .LI1\n";
  S += "\tmovl $2, %ecx\n.LI2:\n\taddl $1, %edx\n\tsubl $1, %ecx\n";
  S += "\tjne .LI2\n";
  S += "\tsubl $1, %r15d\n\tjne .LOUTER\n";
  S += ".LDONE:\n\tmovl $0, %eax\n\tleave\n\tret\n";
  S += "\t.size bench_main, .-bench_main\n";
  return S;
}

/// bench_lsd_layout's kernel (paper Figs. 4/5): a loop placed at a bad
/// offset so it spans six decode lines until LSDOPT pads it into four.
std::string lsdLayoutKernel() {
  std::string S;
  S += "\t.text\n\t.globl bench_main\n\t.type bench_main, @function\n";
  S += "bench_main:\n\tpushq %rbp\n\tmovq %rsp, %rbp\n";
  S += "\tmovl $2000, %r10d\n\tmovl $0, %r8d\n";
  S += "\tmovl $1, %ecx\n\tmovl $2, %edx\n\t.p2align 4\n\tnop15\n";
  S += ".L0:\n\tcmpl %ecx, %edx\n\tjne .L1\n\taddl $3, %r9d\n";
  S += "\tjmp .L1\n.L1:\n\taddl $7, %r9d\n\tmovl %ecx, %edx\n";
  S += "\taddl $1, %esi\n\taddl $2, %edi\n\taddl $3, %r11d\n";
  S += "\taddl $4, %esi\n\taddl $5, %edi\n\taddl $6, %r11d\n";
  S += "\taddl $7, %esi\n\tjmp .L2\n.L2:\n\taddl $1, %r10d\n";
  S += "\taddl $9, %r8d\n\taddl $1, %esi\n\tsubl $2, %r10d\n";
  S += "\tjne .L0\n\tmovl $0, %eax\n\tleave\n\tret\n";
  S += "\t.size bench_main, .-bench_main\n";
  return S;
}

std::string readExample(const std::string &Name) {
  std::ifstream In(std::string(MAO_EXAMPLES_DIR) + "/" + Name);
  std::stringstream Buf;
  Buf << In.rdbuf();
  EXPECT_FALSE(Buf.str().empty()) << Name;
  return Buf.str();
}

/// Inputs on which the relaxing passes actually pad: the tuner examples,
/// the SPEC profiles of the LOOP16 benches, and the BRALIGN/LSDOPT bench
/// kernels. (The Google corpus is not enough: nothing in it is padded.)
std::vector<std::string> pinInputs() {
  std::vector<std::string> Inputs = {readExample("tune_alias.s"),
                                     readExample("tune_lsd.s"),
                                     readExample("tune_fig1.s")};
  for (const char *Bench :
       {"252.eon", "175.vpr", "176.gcc", "300.twolf", "181.mcf", "186.crafty"})
    Inputs.push_back(generateWorkloadAssembly(*findBenchmarkProfile(Bench)));
  Inputs.push_back(branchAliasKernel());
  Inputs.push_back(lsdLayoutKernel());
  return Inputs;
}

struct PassPin {
  const char *Pass;
  const char *Options; ///< "name=value,..." or "".
  uint64_t Digest;
};

/// Digests (FNV-1a, chained over pinInputs() in order) of the emitted
/// assembly and the assembled section bytes after every pass that relaxes
/// while it runs, recorded before relaxation results were cached on the
/// unit. Both --mao-relax modes agree on these inputs (none has a branch
/// the minimality audit can shrink), at every job count. A change here
/// means a pass decided differently on the same input.
const PassPin Pins[] = {
    {"LOOP16", "", 0xd981c4e87f83e30dULL},
    {"LSDOPT", "", 0xf52ea88e3b70f7f0ULL},
    {"BRALIGN", "", 0xcee5a193aa5dd2ffULL},
    {"ALIGNSEL", "pow=5,loops=4", 0x95761cd7d9075656ULL},
    {"INSTRUMENT", "", 0x3af6edaaae5b589cULL},
};

TEST(RelaxerPins, RelaxingPassesEmitPinnedBytes) {
  linkAllPasses();
  const std::vector<std::string> Inputs = pinInputs();
  for (const PassPin &Pin : Pins) {
    PassRequest Req;
    Req.PassName = Pin.Pass;
    std::stringstream Opts(Pin.Options);
    for (std::string KV; std::getline(Opts, KV, ',');)
      Req.Options.set(KV.substr(0, KV.find('=')),
                      KV.substr(KV.find('=') + 1));
    for (RelaxMode Mode : {RelaxMode::Grow, RelaxMode::Optimal}) {
      ScopedRelaxMode M(Mode);
      for (unsigned Jobs : {1u, 4u}) {
        uint64_t Digest = 0xcbf29ce484222325ULL;
        unsigned Transformations = 0;
        for (const std::string &Text : Inputs) {
          MaoUnit Unit = parseOk(Text);
          PipelineOptions Options;
          Options.Jobs = Jobs;
          PipelineResult R = runPasses(Unit, {Req}, Options);
          ASSERT_TRUE(R.Ok) << Pin.Pass << ": " << R.Error;
          Transformations += R.Outcomes[0].Transformations;
          Digest = serve::fnv1a64(emitAssembly(Unit), Digest);
          // The encoded bytes pin the layout the pass left behind too.
          ErrorOr<SectionBytes> Bytes = assembleUnit(Unit);
          ASSERT_TRUE(Bytes.ok()) << Pin.Pass << ": " << Bytes.message();
          for (const auto &[Section, Data] : *Bytes)
            Digest = serve::fnv1a64(
                std::string_view(reinterpret_cast<const char *>(Data.data()),
                                 Data.size()),
                serve::fnv1a64(Section, Digest));
        }
        EXPECT_GT(Transformations, 0u) << Pin.Pass << " pads nothing";
        EXPECT_EQ(Digest, Pin.Digest)
            << Pin.Pass
            << " mode=" << (Mode == RelaxMode::Grow ? "grow" : "optimal")
            << " jobs=" << Jobs << std::hex << " digest=0x" << Digest;
      }
    }
  }
}

// --- Assembler integration --------------------------------------------------

TEST(Assembler, BytesMatchLayout) {
  MaoUnit Unit = parseOk(paperExample(16, true));
  auto BytesOr = assembleUnit(Unit);
  ASSERT_TRUE(BytesOr.ok()) << BytesOr.message();
  const std::vector<uint8_t> &Text = BytesOr->at(".text");
  // Total size equals the relaxed section size.
  RelaxationResult R = relaxUnit(Unit);
  EXPECT_EQ(static_cast<int64_t>(Text.size()), R.SectionSizes.at(".text"));
  // First bytes: push %rbp; mov %rsp,%rbp (gas reference).
  ASSERT_GE(Text.size(), 4u);
  EXPECT_EQ(Text[0], 0x55);
  EXPECT_EQ(Text[1], 0x48);
  EXPECT_EQ(Text[2], 0x89);
  EXPECT_EQ(Text[3], 0xe5);
}

TEST(Assembler, IdentityTransformPreservesBytes) {
  // The paper's verification workflow: run MAO with no transformation and
  // check the binary is unchanged (Sec. III-A).
  MaoUnit A = parseOk(paperExample(16, true));
  MaoUnit B = parseOk(emitAssembly(A)); // emit + reparse
  auto BytesA = assembleUnit(A);
  auto BytesB = assembleUnit(B);
  ASSERT_TRUE(BytesA.ok());
  ASSERT_TRUE(BytesB.ok());
  EXPECT_EQ(*BytesA, *BytesB);
}

} // namespace
