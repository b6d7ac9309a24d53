// Rule-family interface of the cmcheck static-analysis driver: a family
// exposes only its tree analysis and its seeded self-test; the driver owns
// argument parsing, tree loading, the allowlist and the report. Rule names
// are unique across families, so `rule:path` allowlist keys stay
// unambiguous.

#ifndef CROSSMODAL_TOOLS_CHECKS_FAMILY_H_
#define CROSSMODAL_TOOLS_CHECKS_FAMILY_H_

#include <filesystem>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/findings.h"
#include "analysis/source.h"
#include "analysis/symbols.h"

namespace checks {

/// The analyzed tree: every .h/.cc/.cpp under src/, tools/, tests/, bench/
/// and examples/ (sorted by path, testdata/ skipped) and, when a selected
/// family reads it, the class model of each file.
struct Tree {
  std::filesystem::path root;
  std::vector<analysis::SourceFile> files;
  /// Per file; empty unless loaded with `with_classes`.
  std::vector<std::vector<analysis::ClassInfo>> classes;
};

/// Loads the tree under `root`, with the class model when `with_classes`;
/// false with `*error` set on an IO error.
bool LoadTree(const std::filesystem::path& root, bool with_classes,
              Tree* tree, std::string* error);

/// Appends a family's findings; false with `*error` set when the family
/// cannot run (e.g. an unreadable LAYERS spec).
using AnalyzeFn = bool (*)(const Tree& tree,
                           std::vector<analysis::Finding>* findings,
                           std::string* error);

/// One registered rule family.
struct Family {
  const char* name;  ///< The `--only` spelling.
  AnalyzeFn analyze;
  bool reads_classes;  ///< Whether analyze reads Tree::classes.
  /// Checks the family's fixtures under `testdata`; prints a success line
  /// or the failed assertions.
  bool (*self_test)(const std::filesystem::path& testdata);
};

extern const Family kLint;
extern const Family kDeps;
extern const Family kRace;
extern const Family kLife;

/// Findings of one fixture tree, keyed "rule:file:line" for assertions.
struct FixtureResult {
  std::vector<analysis::Finding> findings;
  std::set<std::string> keys;
  bool ok = false;  ///< Loaded and analyzed without an error.
};

/// Self-test bookkeeping shared by the families: runs `family`'s analysis
/// over the fixture trees under `fixtures`, loaded as the driver loads the
/// real tree for it, and counts failed expectations.
class SelfTestRun {
 public:
  SelfTestRun(std::filesystem::path fixtures, const Family& family)
      : fixtures_(std::move(fixtures)), family_(family) {}

  /// Loads the fixture tree `fixtures/<name>` and analyzes it.
  FixtureResult Run(const std::string& name) const;
  /// Prints "self-test FAIL: <what>" and counts a failure unless `cond`.
  void Expect(bool cond, const std::string& what);
  /// Prints `success` and returns true when no expectation failed.
  bool Finish(const char* success) const;

 private:
  std::filesystem::path fixtures_;
  const Family& family_;
  int failures_ = 0;
};

}  // namespace checks

#endif  // CROSSMODAL_TOOLS_CHECKS_FAMILY_H_
