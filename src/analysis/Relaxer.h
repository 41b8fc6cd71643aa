//===- analysis/Relaxer.h - Repeated relaxation -----------------*- C++ -*-===//
///
/// \file
/// Relaxation finds proper instruction sizes for branches based on branch
/// target distances, which in turn determines the start address of every
/// instruction (paper Sec. II). Because growing one branch moves other
/// targets, the algorithm iterates; the paper notes the general problem is
/// NP-complete, imposes a built-in limit of 100 iterations, and observes
/// that in practice relaxation converges in a few iterations. MAO needs
/// *repeated* relaxation (unlike gas, which relaxed once just before
/// writing the object file) because alignment passes re-layout code and
/// re-query addresses many times.
///
/// Our implementation chooses rel8 vs. rel32 monotonically (branches only
/// grow), so convergence is guaranteed; `.p2align` padding is recomputed
/// every round and settles once branch sizes do. Relaxation is a
/// deterministic function of the layout, so relaxUnit keeps its converged
/// result on the unit and re-relaxes only after the unit's layout
/// generation moved: an alignment pass that queries addresses once per
/// function pays for one whole-unit relax per edit, not per query.
///
/// On success every entry's Address (offset within its section) and Size
/// are filled in, and a label-address map is produced for binary encoding.
///
//===----------------------------------------------------------------------===//

#ifndef MAO_ANALYSIS_RELAXER_H
#define MAO_ANALYSIS_RELAXER_H

#include "ir/MaoUnit.h"
#include "x86/Encoder.h"

#include <string>
#include <unordered_map>

namespace mao {

class DiagEngine;

/// Built-in iteration bound from the paper.
constexpr unsigned RelaxationIterationLimit = 100;

/// Branch-displacement selection mode (driver flag --mao-relax).
enum class RelaxMode : uint8_t {
  /// Monotone grow-from-rel8, the paper's algorithm: branches only widen,
  /// so convergence is guaranteed and the result is the least fixpoint of
  /// the grow iteration.
  Grow,
  /// Minimal-size selection after Boender & Sacerdoti Coen's provably
  /// correct branch-displacement algorithm: converge the monotone
  /// iteration, then audit every rel32 branch under the settled layout and
  /// shrink the ones whose displacement fits rel8, re-converging after
  /// each shrink round. On alignment-free layouts the grow fixpoint is
  /// already minimal and both modes agree byte-for-byte; alignment padding
  /// can make the grow solution conservatively large, and the audit
  /// recovers those bytes. Either way the result passes the verifier's
  /// rel8-fixpoint layout check.
  Optimal,
};

/// Process-global relaxation mode. Every relaxUnit caller (passes, the
/// assembler, the layout verifier) sees the same mode, which keeps
/// verification consistent with emission; set once at startup from the
/// driver flag, before any pipeline runs. Defaults to Grow.
RelaxMode relaxMode();
void setRelaxMode(RelaxMode Mode);

/// Parses "grow"/"optimal"; returns false on anything else.
bool parseRelaxMode(const std::string &Text, RelaxMode &Mode);

struct RelaxationResult {
  bool Converged = false;
  unsigned Iterations = 0;
  /// Optimal mode only: net number of branches demoted from rel32 to rel8
  /// by the minimality audit (0 in Grow mode or when the grow fixpoint was
  /// already minimal).
  unsigned ShrunkBranches = 0;
  /// Label -> address within its *defining* section. Every label defined
  /// in the unit is present, including global ones. Addresses of different
  /// sections are unrelated address spaces (each restarts at 0): this flat
  /// view is for callers that already know the section context (data
  /// directives resolving same-section differences, tests); displacement
  /// computation must go through sectionLabels().
  LabelAddressMap Labels;
  /// Section name -> the labels defined in that section. Branch
  /// displacement resolution uses the branch's own section map, so a
  /// cross-section target can never be mistaken for an in-section address;
  /// targets absent from the branch's section map (truly external or
  /// cross-section) take the rel32 path.
  std::unordered_map<std::string, LabelAddressMap> SectionLabels;
  /// Section name -> total byte size.
  std::unordered_map<std::string, int64_t> SectionSizes;

  /// The label map of \p SectionName (empty map when the section defines
  /// no labels).
  const LabelAddressMap &sectionLabels(const std::string &SectionName) const;
};

/// Relaxes every section of \p Unit. Walks the section views, which insert
/// and erase keep current; after edits that leave them stale (moveRange,
/// new sections) rebuildStructure() must run first. When the iteration
/// limit is hit, a structured warning naming the offending section is
/// emitted through \p Diags (when non-null) and Converged stays false —
/// callers gate on it (the verifier turns it into a layout error).
///
/// The single relaxation entry point, and cheap when nothing changed: a
/// converged result is cached on the unit against its layout generation
/// and the relax mode, and returned as is while neither moves (the entries
/// still hold the Address/Size/BranchSize it wrote). A non-converged result
/// is never cached. The returned reference stays valid until the next
/// relaxUnit call on \p Unit, or until \p Unit is moved or destroyed.
/// Publishes relax.calls/cold/cached/iterations and time.relax_us.
const RelaxationResult &relaxUnit(MaoUnit &Unit, DiagEngine *Diags = nullptr);

/// True when relaxUnit would serve \p Unit from its cache: a converged
/// result exists for the current layout generation and relax mode. The
/// verifier uses it to decide whether the unit claims a clean layout.
bool layoutIsCached(MaoUnit &Unit);

/// Returns the layout size in bytes of a non-instruction entry at
/// \p Address (alignment padding, data directive sizes; labels are 0).
unsigned entryLayoutSize(const MaoEntry &Entry, int64_t Address);

} // namespace mao

#endif // MAO_ANALYSIS_RELAXER_H
