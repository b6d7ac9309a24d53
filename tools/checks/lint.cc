// lint: repo-convention rules for library code under src/.
//
// The compiler enforces warnings; these rules enforce the conventions it cannot
// see. The linter is a small multi-pass rule engine: a load pass reads each
// file and strips comments/strings, a facts pass indexes declarations the
// rules need (unordered-container variables, lambda extents), and a rule
// pass evaluates every registered rule against the file context. Rules
// (each suppressible per-file via the allowlist):
//
//   include-guard   .h guards must be CROSSMODAL_<DIR>_<FILE>_H_ (path
//                   relative to src/), with a matching #define.
//   file-comment    every header starts with a top-of-file // doc comment.
//   nodiscard       Status / Result<T>-returning declarations in headers
//                   must be marked [[nodiscard]] (a dropped Status is a
//                   silently swallowed data-corruption signal).
//   banned-call     library code may not call rand() (use util/random.h),
//                   write to std::cout (use util/logging.h or return data),
//                   or use naked new / delete (use smart pointers).
//   unordered-iter  range-for over an unordered container (or FeatureStore,
//                   whose iteration exposes its unordered_map) whose body
//                   writes to an output/accumulator: iteration order is
//                   run-dependent, so anything order-sensitive built from it
//                   is nondeterministic. Iterate a sorted copy, or annotate
//                   the loop with `// cmlint: unordered-ok` when the order
//                   provably cannot escape (e.g. commutative reduction).
//   nondeterministic-seed
//                   std::random_device and time()-based seeding are banned
//                   in src/: every seed must be threaded from config
//                   (util/random.h, DeriveSeed) so runs are reproducible.
//   parallel-reduction
//                   a ParallelFor body compound-assigning (+=, -=, *=) into
//                   a variable declared outside the body is a data race
//                   and, even when "benign", makes float sums depend on
//                   thread interleaving. Accumulate per index and reduce
//                   in order afterwards, or annotate the accumulation line
//                   with `// cmlint: parallel-ok`.
//
// The `lint` family of cmcheck (see checks/family.h). The load pass
// (comment/string stripping, file IO) is the driver's; this family owns
// only its per-file convention rules.

#include <cctype>
#include <filesystem>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/text.h"
#include "checks/family.h"

namespace checks {

namespace fs = std::filesystem;

using analysis::Finding;

namespace {

// Everything the rules may inspect about one file: the loaded file plus
// the facts pass, handed to every rule.
struct FileContext {
  const analysis::SourceFile& file;
  fs::path rel_to_src;  // path relative to src/ (include-guard name)
  // Facts (pass 2):
  std::set<std::string> unordered_vars;  // names declared as unordered
                                         // containers (or FeatureStore)
};

// ---------------------------------------------------------------------------
// Pass 2 — facts: index declarations the data-flow-ish rules need.
// ---------------------------------------------------------------------------

void CollectUnorderedVars(FileContext* ctx) {
  const std::string& text = ctx->file.stripped_text;
  // std::unordered_map<...> name / std::unordered_set<...> name, including
  // reference/pointer declarators and function parameters. FeatureStore is
  // included because its begin()/end() expose the underlying unordered_map.
  static const std::regex decl_re(
      R"((unordered_map|unordered_set)\s*<)");
  for (auto it = std::sregex_iterator(text.begin(), text.end(), decl_re);
       it != std::sregex_iterator(); ++it) {
    const size_t open = static_cast<size_t>(it->position()) +
                        static_cast<size_t>(it->length()) - 1;
    size_t pos = analysis::SkipTemplateArgs(text, open);
    if (pos == std::string::npos) continue;
    while (pos < text.size() &&
           (std::isspace(static_cast<unsigned char>(text[pos])) ||
            text[pos] == '&' || text[pos] == '*')) {
      ++pos;
    }
    size_t end = pos;
    while (end < text.size() &&
           (std::isalnum(static_cast<unsigned char>(text[end])) ||
            text[end] == '_')) {
      ++end;
    }
    if (end > pos) ctx->unordered_vars.insert(text.substr(pos, end - pos));
  }
  static const std::regex store_re(R"(\bFeatureStore\s*[&*]?\s*([A-Za-z_]\w*))");
  for (auto it = std::sregex_iterator(text.begin(), text.end(), store_re);
       it != std::sregex_iterator(); ++it) {
    ctx->unordered_vars.insert((*it)[1]);
  }
}

void CollectFacts(FileContext* ctx) { CollectUnorderedVars(ctx); }

// ---------------------------------------------------------------------------
// Pass 3 — rules.
// ---------------------------------------------------------------------------

// CROSSMODAL_<DIR>_<FILE>_H_ for a header path relative to src/.
std::string ExpectedGuard(const fs::path& rel_to_src) {
  std::string guard = "CROSSMODAL_";
  for (const char c : rel_to_src.generic_string()) {
    if (c == '/' || c == '.') {
      guard += '_';
    } else {
      guard += static_cast<char>(
          std::toupper(static_cast<unsigned char>(c)));
    }
  }
  guard += '_';
  return guard;
}

void CheckIncludeGuard(const FileContext& ctx, std::vector<Finding>* findings) {
  if (!ctx.file.is_header) return;
  const std::string expected = ExpectedGuard(ctx.rel_to_src);
  static const std::regex ifndef_re(R"(^#ifndef\s+(\S+))");
  static const std::regex define_re(R"(^#define\s+(\S+))");
  std::smatch m;
  for (size_t i = 0; i < ctx.file.raw_lines.size(); ++i) {
    if (!std::regex_search(ctx.file.raw_lines[i], m, ifndef_re)) continue;
    const std::string guard = m[1];
    if (guard != expected) {
      findings->push_back({"include-guard", ctx.file.rel,
                           static_cast<int>(i + 1),
                           "guard '" + guard + "' should be '" + expected +
                               "'", ""});
      return;
    }
    // The next non-blank line must define the same symbol.
    for (size_t j = i + 1; j < ctx.file.raw_lines.size(); ++j) {
      if (ctx.file.raw_lines[j].empty()) continue;
      if (!std::regex_search(ctx.file.raw_lines[j], m, define_re) ||
          m[1] != guard) {
        findings->push_back({"include-guard", ctx.file.rel,
                             static_cast<int>(j + 1),
                             "#ifndef " + guard +
                                 " is not followed by its #define", ""});
      }
      return;
    }
    return;
  }
  findings->push_back(
      {"include-guard", ctx.file.rel, 1, "header has no include guard", ""});
}

void CheckFileComment(const FileContext& ctx, std::vector<Finding>* findings) {
  if (!ctx.file.is_header) return;
  if (ctx.file.raw_lines.empty() || ctx.file.raw_lines[0].rfind("//", 0) != 0) {
    findings->push_back({"file-comment", ctx.file.rel, 1,
                         "header must start with a top-of-file // doc "
                         "comment describing the component", ""});
  }
}

void CheckNodiscard(const FileContext& ctx, std::vector<Finding>* findings) {
  if (!ctx.file.is_header) return;
  // A declaration line returning Status or Result<T>. Multi-line forms with
  // the return type alone on its own line are not produced in this tree.
  static const std::regex decl_re(
      R"(^\s*(static\s+|virtual\s+)*(Status|Result<.*>)\s+[A-Za-z_]\w*\s*\()");
  static const std::regex nodiscard_re(R"(\[\[nodiscard\]\])");
  for (size_t i = 0; i < ctx.file.stripped_lines.size(); ++i) {
    const std::string& line = ctx.file.stripped_lines[i];
    if (!std::regex_search(line, decl_re)) continue;
    if (std::regex_search(line, nodiscard_re)) continue;
    findings->push_back({"nodiscard", ctx.file.rel, static_cast<int>(i + 1),
                         "Status/Result-returning declaration must be "
                         "[[nodiscard]]", ""});
  }
}

void CheckBannedCalls(const FileContext& ctx, std::vector<Finding>* findings) {
  struct BannedPattern {
    std::regex re;
    const char* what;
  };
  static const std::vector<BannedPattern> kBanned = {
      {std::regex(R"((^|[^:\w>.])rand\s*\()"),
       "rand() is banned; use util/random.h (seeded, reproducible)"},
      {std::regex(R"(std::cout)"),
       "std::cout is banned in library code; use util/logging.h or return "
       "data to the caller"},
      {std::regex(R"((^|[^\w])new\s+[A-Za-z_:(])"),
       "naked new is banned; use std::make_unique / std::make_shared"},
      {std::regex(R"((^|[^\w])delete\s+[A-Za-z_*(]|(^|[^\w])delete\s*\[\])"),
       "naked delete is banned; use smart pointers"},
  };
  for (size_t i = 0; i < ctx.file.stripped_lines.size(); ++i) {
    for (const auto& banned : kBanned) {
      if (std::regex_search(ctx.file.stripped_lines[i], banned.re)) {
        findings->push_back({"banned-call", ctx.file.rel,
                             static_cast<int>(i + 1), banned.what, ""});
      }
    }
  }
}

// Does `body` contain an order-sensitive write (append to a container,
// accumulate, or stream out)?
bool BodyWritesOutput(const std::string& body) {
  static const std::regex write_re(
      R"((push_back|emplace_back|emplace|insert|append)\s*\(|[+\-]=|<<)");
  return std::regex_search(body, write_re);
}

void CheckUnorderedIter(const FileContext& ctx,
                        std::vector<Finding>* findings) {
  if (ctx.unordered_vars.empty()) return;
  const std::string& text = ctx.file.stripped_text;
  // Range-for whose range expression is (a dereference of) a tracked
  // variable: `for (... : var)`, `for (... : *var)`.
  static const std::regex for_re(
      R"(\bfor\s*\([^;:()]*:\s*\*?([A-Za-z_]\w*)\s*\))");
  for (auto it = std::sregex_iterator(text.begin(), text.end(), for_re);
       it != std::sregex_iterator(); ++it) {
    const std::string var = (*it)[1];
    if (ctx.unordered_vars.count(var) == 0) continue;
    const size_t for_end = static_cast<size_t>(it->position()) +
                           static_cast<size_t>(it->length());
    const int line = analysis::LineOfOffset(text, static_cast<size_t>(it->position()));
    if (analysis::HasSuppressionNear(ctx.file.raw_lines, line,
                                     "cmlint: unordered-ok")) {
      continue;
    }
    // Body extent: the braced block after the ')' or, unbraced, the rest of
    // the statement up to ';'.
    size_t body_begin = for_end;
    while (body_begin < text.size() &&
           std::isspace(static_cast<unsigned char>(text[body_begin]))) {
      ++body_begin;
    }
    std::string body;
    if (body_begin < text.size() && text[body_begin] == '{') {
      const size_t body_end = analysis::MatchingBrace(text, body_begin);
      if (body_end == std::string::npos) continue;
      body = text.substr(body_begin, body_end - body_begin + 1);
    } else {
      const size_t semi = text.find(';', body_begin);
      if (semi == std::string::npos) continue;
      body = text.substr(body_begin, semi - body_begin + 1);
    }
    if (!BodyWritesOutput(body)) continue;
    findings->push_back(
        {"unordered-iter", ctx.file.rel, line,
         "range-for over unordered container '" + var +
             "' feeds an output/accumulator; iteration order is "
             "run-dependent — iterate a sorted copy, or annotate the loop "
             "with '// cmlint: unordered-ok' if order cannot escape", ""});
  }
}

void CheckNondeterministicSeed(const FileContext& ctx,
                               std::vector<Finding>* findings) {
  struct SeedPattern {
    std::regex re;
    const char* what;
  };
  static const std::vector<SeedPattern> kSeeds = {
      {std::regex(R"(\brandom_device\b)"),
       "std::random_device is banned; thread seeds from config via "
       "util/random.h (Rng / DeriveSeed) so runs are reproducible"},
      {std::regex(R"((^|[^\w:.>])time\s*\(|std::time\s*\()"),
       "time()-based seeding is banned; thread seeds from config via "
       "util/random.h (Rng / DeriveSeed) so runs are reproducible"},
  };
  for (size_t i = 0; i < ctx.file.stripped_lines.size(); ++i) {
    for (const auto& seed : kSeeds) {
      if (std::regex_search(ctx.file.stripped_lines[i], seed.re)) {
        findings->push_back({"nondeterministic-seed", ctx.file.rel,
                             static_cast<int>(i + 1), seed.what, ""});
      }
    }
  }
}

void CheckParallelReduction(const FileContext& ctx,
                            std::vector<Finding>* findings) {
  const std::string& text = ctx.file.stripped_text;
  // Call sites only (`pool.ParallelFor(` / `pool->ParallelFor(`), never the
  // ThreadPool::ParallelFor definition itself.
  static const std::regex call_re(R"((\.|->)ParallelFor\s*\()");
  // Plain-identifier compound assignment: `total += x`, `*out -= x` — not
  // `slots[i] +=` (indexed writes to disjoint slots are the safe pattern).
  static const std::regex accum_re(R"((^|[^\w.\]\)])([A-Za-z_]\w*)\s*[+\-*]=)");
  for (auto it = std::sregex_iterator(text.begin(), text.end(), call_re);
       it != std::sregex_iterator(); ++it) {
    const size_t call_pos = static_cast<size_t>(it->position());
    const size_t body_open = text.find('{', call_pos);
    if (body_open == std::string::npos) continue;
    const size_t body_close = analysis::MatchingBrace(text, body_open);
    if (body_close == std::string::npos) continue;
    const std::string body =
        text.substr(body_open, body_close - body_open + 1);
    for (auto acc = std::sregex_iterator(body.begin(), body.end(), accum_re);
         acc != std::sregex_iterator(); ++acc) {
      const std::string var = (*acc)[2];
      // Declared inside the body (a per-iteration local): not shared.
      const std::regex local_decl_re(
          R"(\b(auto|double|float|int|long|unsigned|size_t|u?int\d+_t)\b[^;\n]*\b)" +
          var + R"(\s*[={;])");
      if (std::regex_search(body, local_decl_re)) continue;
      const int line = analysis::LineOfOffset(
          text, body_open + static_cast<size_t>(acc->position()));
      if (analysis::HasSuppressionNear(ctx.file.raw_lines, line,
                                       "cmlint: parallel-ok")) {
        continue;
      }
      findings->push_back(
          {"parallel-reduction", ctx.file.rel, line,
           "ParallelFor body accumulates into shared '" + var +
               "'; a data race, and float sums become interleaving-"
               "dependent — accumulate per index and reduce in order "
               "afterwards, or annotate with '// cmlint: parallel-ok'", ""});
    }
  }
}

// The registered rule set, evaluated in order against each file context.
struct Rule {
  const char* name;
  void (*check)(const FileContext&, std::vector<Finding>*);
};
const Rule kRules[] = {
    {"include-guard", &CheckIncludeGuard},
    {"file-comment", &CheckFileComment},
    {"nodiscard", &CheckNodiscard},
    {"banned-call", &CheckBannedCalls},
    {"unordered-iter", &CheckUnorderedIter},
    {"nondeterministic-seed", &CheckNondeterministicSeed},
    {"parallel-reduction", &CheckParallelReduction},
};

// Lints every file under src/: facts pass, then every registered rule.
bool Analyze(const Tree& tree, std::vector<Finding>* findings, std::string*) {
  for (const analysis::SourceFile& file : tree.files) {
    if (file.rel.rfind("src/", 0) != 0) continue;
    FileContext ctx{file, fs::path(file.rel).lexically_relative("src"), {}};
    CollectFacts(&ctx);
    for (const Rule& rule : kRules) rule.check(ctx, findings);
  }
  return true;
}

// ---------------------------------------------------------------------------
// Self-test over the seeded tree in tools/analysis/testdata/cmlint/: one
// violation per rule, and the allowlist and the in-source suppression
// comments suppress them.
// ---------------------------------------------------------------------------

bool SelfTest(const fs::path& testdata) {
  SelfTestRun t(testdata, kLint);
  const FixtureResult r = t.Run("cmlint");
  t.Expect(r.ok && !r.findings.empty(), "seeded tree must report findings");
  std::ostringstream report;
  analysis::PrintFindings(r.findings, false, report);
  const std::string text = report.str();
  auto contains = [&text](const std::string& needle) {
    return text.find(needle) != std::string::npos;
  };
  t.Expect(contains("bad_guard.h:2: [include-guard]"),
           "wrong include guard detected");
  t.Expect(contains("no_comment.h:1: [file-comment]"),
           "missing doc comment detected");
  t.Expect(contains("drops_status.h:5: [nodiscard]"),
           "Status decl without [[nodiscard]] detected");
  t.Expect(contains("drops_status.h:6: [nodiscard]"),
           "Result decl without [[nodiscard]] detected");
  t.Expect(contains("banned.cc:3: [banned-call]"), "rand() detected");
  t.Expect(contains("banned.cc:4: [banned-call]"), "std::cout detected");
  t.Expect(contains("banned.cc:5: [banned-call]"), "naked new detected");
  t.Expect(contains("banned.cc:6: [banned-call]"), "naked delete detected");
  t.Expect(contains("unordered_iter.cc:6: [unordered-iter]"),
           "unordered range-for into output detected");
  t.Expect(!contains("unordered_iter.cc:13"),
           "'cmlint: unordered-ok' suppresses the loop");
  t.Expect(!contains("unordered_iter.cc:19"),
           "order-insensitive counting loop not flagged");
  t.Expect(contains("clock_seed.cc:4: [nondeterministic-seed]"),
           "time() seeding detected");
  t.Expect(contains("clock_seed.cc:5: [nondeterministic-seed]"),
           "std::random_device detected");
  t.Expect(!contains("clock_seed.cc:6"),
           "'time' substrings (Timestamp) not flagged");
  t.Expect(contains("parallel_sum.cc:6: [parallel-reduction]"),
           "shared += in ParallelFor body detected");
  t.Expect(!contains("parallel_sum.cc:14"),
           "body-local accumulator not flagged");
  t.Expect(!contains("parallel_sum.cc:15"),
           "per-slot indexed accumulation not flagged");
  t.Expect(!contains("parallel_sum.cc:24"),
           "'cmlint: parallel-ok' suppresses the accumulation");
  t.Expect(!contains("clean.h"), "clean header produces no findings");

  // Allowlisting every seeded violation must leave nothing to report.
  bool allow_ok = true;
  const analysis::FilteredFindings allowed = analysis::ApplyAllowlist(
      r.findings,
      analysis::LoadAllowlist(testdata / "cmlint" / "allow.txt", &allow_ok));
  t.Expect(allow_ok && allowed.reported.empty(),
           "allowlisted tree must report nothing (got " +
               std::to_string(allowed.reported.size()) + ")");
  return t.Finish("cmlint self-test: all rules detect seeded violations");
}

}  // namespace

const Family kLint = {"lint", &Analyze, false, &SelfTest};

}  // namespace checks
