// cmcheck: the repo's static-analysis driver. Loads the source tree once
// and runs four rule families over it (tools/checks/): lint (per-file
// conventions under src/), deps (layering, unchecked Status, blocking under
// a lock), race (shared captures, guard coverage, atomic orderings,
// allocation in slices) and life (view escape, deferred captures,
// invalidated references, use after move). Findings pass through one
// allowlist, <root>/tools/cmcheck_allowlist.txt, into one report.
//
// Usage:
//   cmcheck --root <repo-root> [--only <family>] [--json] [--fix-hints]
//   cmcheck --root <repo-root> --self-test [--only <family>]
//       (fixtures under <root>/tools/analysis/testdata)
//   cmcheck --check-layers FILE
//
// Exit status: 0 clean, 1 findings or a failed self-test, 2 usage or I/O
// error.

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/findings.h"
#include "analysis/layers.h"
#include "checks/family.h"

namespace fs = std::filesystem;

namespace checks {

bool LoadTree(const fs::path& root, Tree* tree, std::string* error) {
  tree->root = root;
  for (const fs::path& path : analysis::ListSourceFiles(
           root, {"src", "tools", "tests", "bench", "examples"})) {
    analysis::SourceFile file;
    const std::string rel = fs::relative(path, root).generic_string();
    if (!analysis::LoadSourceFile(path, rel, &file)) {
      *error = "cannot read " + rel;
      return false;
    }
    tree->classes.push_back(analysis::CollectClasses(file));
    tree->files.push_back(std::move(file));
  }
  return true;
}

void SelfTestRun::Expect(bool cond, const std::string& what) {
  if (cond) return;
  std::cout << "self-test FAIL: " << what << "\n";
  ++failures_;
}

FixtureResult SelfTestRun::Run(const std::string& name) const {
  FixtureResult result;
  Tree tree;
  std::string error;
  result.ok = LoadTree(fixtures_ / name, &tree, &error) &&
              analyze_(tree, &result.findings, &error);
  for (const analysis::Finding& f : result.findings) {
    result.keys.insert(f.rule + ":" + f.file + ":" + std::to_string(f.line));
  }
  return result;
}

bool SelfTestRun::Finish(const char* success) const {
  if (failures_ > 0) return false;
  std::cout << success << "\n";
  return true;
}

}  // namespace checks

namespace {

const checks::Family* const kFamilies[] = {&checks::kLint, &checks::kDeps,
                                           &checks::kRace, &checks::kLife};

int Usage() {
  std::cout << "usage: cmcheck --root <repo-root> [--only lint|deps|race|life]"
               " [--self-test | --json | --fix-hints] | --check-layers FILE\n";
  return 2;
}

int CheckLayers(const fs::path& path) {
  analysis::LayerSpec spec;
  std::string error;
  if (!analysis::LoadLayerSpec(path.string(), &spec, &error)) {
    std::cout << "cmcheck: " << error << "\n";
    return 1;
  }
  std::cout << "cmcheck: " << path.string() << " OK (" << spec.level.size()
            << " modules, " << spec.allowed.size()
            << " allowed exception(s))\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root, check_layers;
  std::string only;
  bool self_test = false, json = false, fix_hints = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      self_test = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--fix-hints") {
      fix_hints = true;
    } else if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--only" && i + 1 < argc) {
      only = argv[++i];
    } else if (arg == "--check-layers" && i + 1 < argc) {
      check_layers = argv[++i];
    } else {
      return Usage();
    }
  }
  if (!check_layers.empty()) return CheckLayers(check_layers);
  if (root.empty()) return Usage();

  std::vector<const checks::Family*> families;
  for (const checks::Family* family : kFamilies) {
    if (only.empty() || only == family->name) families.push_back(family);
  }
  if (families.empty()) return Usage();

  if (self_test) {
    bool ok = true;
    for (const checks::Family* family : families) {
      ok = family->self_test(root / "tools" / "analysis" / "testdata") && ok;
    }
    return ok ? 0 : 1;
  }

  checks::Tree tree;
  std::string error;
  if (!checks::LoadTree(root, &tree, &error)) {
    std::cout << "cmcheck: " << error << "\n";
    return 2;
  }
  std::vector<analysis::Finding> findings;
  for (const checks::Family* family : families) {
    if (!family->analyze(tree, &findings, &error)) {
      std::cout << "cmcheck: " << family->name << ": " << error << "\n";
      return 2;
    }
  }

  const fs::path allowlist = root / "tools" / "cmcheck_allowlist.txt";
  bool allow_ok = true;
  const std::set<std::string> allow = analysis::LoadAllowlist(
      fs::exists(allowlist) ? allowlist : fs::path(), &allow_ok);
  if (!allow_ok) {
    std::cout << "cmcheck: cannot read allowlist " << allowlist << "\n";
    return 2;
  }
  analysis::FilteredFindings filtered =
      analysis::ApplyAllowlist(findings, allow);
  std::sort(filtered.reported.begin(), filtered.reported.end(),
            [](const analysis::Finding& a, const analysis::Finding& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });

  if (json) {
    analysis::PrintFindingsJson("cmcheck", filtered.reported, std::cout);
  } else {
    analysis::PrintFindings(filtered.reported, fix_hints, std::cout);
    // With --only, entries for the families that did not run match nothing.
    if (only.empty()) {
      for (const std::string& entry : filtered.stale) {
        std::cout << "note: stale allowlist entry (no matching finding): "
                  << entry << "\n";
      }
    }
    std::cout << "cmcheck: " << tree.files.size() << " files, "
              << filtered.reported.size() << " finding(s)";
    if (filtered.suppressed > 0) {
      std::cout << ", " << filtered.suppressed << " allowlisted";
    }
    std::cout << "\n";
  }
  return filtered.reported.empty() ? 0 : 1;
}
