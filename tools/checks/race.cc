// race: whole-repo concurrency & hot-path rules.
//
// Four token-level rules over the stripped source tree, built on the
// tools/analysis scanning library and its C++ symbol/field model:
//
//   shared-capture        mutable state captured by reference into a lambda
//                         passed to ThreadPool::ParallelFor / ForEachSlice /
//                         ParallelMap / Submit and written without
//                         synchronization. Exempt: const, std::atomic,
//                         Mutex objects, per-slot subscripted writes, writes
//                         under a MutexLock inside the lambda, and
//                         `// cmrace: shared-ok — <why>` suppressions.
//   guard-missing /       per mutex-owning class, fields written inside
//   requires-missing      MutexLock scopes or CM_REQUIRES methods are
//                         cross-referenced against CM_GUARDED_BY; the tool
//                         infers and prints the exact annotation to add
//                         (--fix-hints). Suppress: `// cmrace: guard-ok`.
//   atomic-rmw-order /    std::atomic RMW without an explicit
//   atomic-counter-order  std::memory_order, operator ++/+= on atomics
//                         (implicit seq_cst), and non-relaxed ordering on
//                         pure counters (discarded fetch_add/fetch_sub —
//                         the ServiceHealth convention). Suppress:
//                         `// cmrace: order-ok`.
//   alloc-in-slice        heap allocation (new, unreserved push_back,
//                         string/container construction, map inserts)
//                         inside loops of slice-parallel lambda bodies in
//                         src/. Suppress: `// cmrace: alloc-ok`.
//
// This is the static complement to TSan and the runtime lockdep checker:
// those catch races a test actually executes; these rules prove the whole
// tree follows the slice-ownership and annotation discipline without running
// it.
//
// The `race` family of cmcheck (see checks/family.h).

#include <algorithm>
#include <filesystem>
#include <map>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "analysis/text.h"
#include "checks/family.h"

namespace checks {

namespace fs = std::filesystem;

using analysis::ClassInfo;
using analysis::FieldInfo;
using analysis::Finding;
using analysis::FindWord;
using analysis::MethodInfo;
using analysis::SourceFile;

namespace {

constexpr char kSharedOk[] = "cmrace: shared-ok";
constexpr char kGuardOk[] = "cmrace: guard-ok";
constexpr char kOrderOk[] = "cmrace: order-ok";
constexpr char kAllocOk[] = "cmrace: alloc-ok";

// ---------------------------------------------------------------------------
// Write extraction: the token patterns all rules treat as "mutates `name`".
// ---------------------------------------------------------------------------

/// One detected mutation of a named object.
struct WriteRef {
  std::string name;  ///< Base identifier written (before any .member chain).
  size_t offset;     ///< Offset of the identifier in the scanned text.
};

/// True when the character before `pos` allows `pos` to start a base
/// identifier: rejects member access (a.b, a->b), subscript results, and
/// call results, so only writes to the named object itself match.
bool BaseNameOk(const std::string& text, size_t pos) {
  if (pos == 0) return true;
  const char c = text[pos - 1];
  if (analysis::IsIdentChar(c) || c == '.' || c == ']' || c == ')') {
    return false;
  }
  if (c == '>' && pos >= 2 && text[pos - 2] == '-') return false;
  return true;
}

/// True when `name` at [pos, pos+len) is immediately subscripted — the
/// per-slot write pattern (hits[i] = ..., ++slot[c]) that slice-parallel
/// code uses for disjoint writes; never treated as a shared mutation.
bool IsSubscripted(const std::string& text, size_t name_end) {
  const size_t nx = analysis::SkipWhitespace(text, name_end);
  return nx < text.size() && text[nx] == '[';
}

/// Appends every pre/post increment/decrement in text[begin, end) to `out`;
/// a subscripted pre-increment (`++slot[c]`) is a slot write, not counted.
void AppendIncrements(const std::string& text, size_t begin, size_t end,
                      std::vector<WriteRef>* out) {
  const std::string body = text.substr(begin, end - begin);
  static const std::regex kPreIncr(R"((\+\+|--)\s*([A-Za-z_]\w*))");
  for (auto it = std::sregex_iterator(body.begin(), body.end(), kPreIncr);
       it != std::sregex_iterator(); ++it) {
    const size_t op_pos = begin + static_cast<size_t>(it->position(1));
    if (op_pos > 0 &&
        (text[op_pos - 1] == '+' || text[op_pos - 1] == '-')) {
      continue;
    }
    const size_t pos = begin + static_cast<size_t>(it->position(2));
    if (IsSubscripted(text, pos + it->length(2))) continue;
    out->push_back({(*it)[2].str(), pos});
  }
  static const std::regex kPostIncr(R"(([A-Za-z_]\w*)\s*(\+\+|--))");
  for (auto it = std::sregex_iterator(body.begin(), body.end(), kPostIncr);
       it != std::sregex_iterator(); ++it) {
    const size_t pos = begin + static_cast<size_t>(it->position(1));
    if (!BaseNameOk(text, pos)) continue;
    out->push_back({(*it)[1].str(), pos});
  }
}

/// Collects every write in text[begin, end): assignments and compound
/// assignments (including member-of-member, e.g. `stats_.jobs += n`),
/// pre/post increment/decrement, and mutating container/member calls.
/// Subscripted targets are excluded by construction (slot writes).
std::vector<WriteRef> ExtractWrites(const std::string& text, size_t begin,
                                    size_t end) {
  std::vector<WriteRef> out;
  const std::string body = text.substr(begin, end - begin);

  static const std::regex kAssign(
      R"(([A-Za-z_]\w*)((?:\s*\.\s*[A-Za-z_]\w*)*)\s*)"
      R"((<<=|>>=|\+=|-=|\*=|/=|%=|&=|\|=|\^=|=))");
  for (auto it = std::sregex_iterator(body.begin(), body.end(), kAssign);
       it != std::sregex_iterator(); ++it) {
    const size_t pos = begin + static_cast<size_t>(it->position(1));
    if (!BaseNameOk(text, pos)) continue;
    if (IsSubscripted(text, pos + it->length(1))) continue;
    const size_t op_end =
        begin + static_cast<size_t>(it->position(3)) +
        static_cast<size_t>(it->length(3));
    // `a == b`: the regex can bind its plain '=' to the first of '=='.
    if ((*it)[3].str() == "=" && op_end < text.size() &&
        text[op_end] == '=') {
      continue;
    }
    out.push_back({(*it)[1].str(), pos});
  }

  AppendIncrements(text, begin, end, &out);

  static const std::regex kMutCall(
      R"(([A-Za-z_]\w*)\s*(\.|->)\s*)"
      R"((push_back|emplace_back|push_front|emplace_front|pop_back|pop_front)"
      R"(|insert|emplace|try_emplace|erase|clear|resize|reserve|assign|swap)"
      R"(|append|store)\s*\()");
  for (auto it = std::sregex_iterator(body.begin(), body.end(), kMutCall);
       it != std::sregex_iterator(); ++it) {
    const size_t pos = begin + static_cast<size_t>(it->position(1));
    if (!BaseNameOk(text, pos)) continue;
    out.push_back({(*it)[1].str(), pos});
  }

  return out;
}

// ---------------------------------------------------------------------------
// Parallel-lambda discovery: lambdas passed inline at ParallelFor /
// ParallelMap / ForEachSlice / Submit call sites.
// ---------------------------------------------------------------------------

struct ParallelLambda : analysis::LambdaInfo {
  std::string trigger;  ///< The primitive the lambda is passed to.
  std::set<std::string> params;  ///< Lambda parameter names.
};

/// Parameter names from a lambda parameter list's inner text.
std::set<std::string> ParseParamNames(const std::string& params_text) {
  std::set<std::string> out;
  int depth = 0;
  size_t item_start = 0;
  for (size_t i = 0; i <= params_text.size(); ++i) {
    const char c = i < params_text.size() ? params_text[i] : ',';
    if (c == '(' || c == '[' || c == '{' || c == '<') ++depth;
    if (c == ')' || c == ']' || c == '}' || c == '>') --depth;
    if (c != ',' || depth != 0) continue;
    std::string item = params_text.substr(item_start, i - item_start);
    item_start = i + 1;
    const size_t eq = item.find('=');
    if (eq != std::string::npos) item = item.substr(0, eq);
    size_t e = item.size();
    while (e > 0 && !analysis::IsIdentChar(item[e - 1])) --e;
    size_t b = e;
    while (b > 0 && analysis::IsIdentChar(item[b - 1])) --b;
    if (e > b) out.insert(item.substr(b, e - b));
  }
  return out;
}

/// Finds every lambda passed inline at a parallel-primitive call site in
/// `file`. With `slice_only`, restricts to the data-parallel primitives
/// (ParallelFor / ParallelMap / ForEachSlice) whose bodies the
/// alloc-in-slice rule polices; Submit tasks are one-shot.
std::vector<ParallelLambda> FindParallelLambdas(const SourceFile& file,
                                                bool slice_only) {
  const std::string& text = file.stripped_text;
  std::vector<ParallelLambda> out;
  static const std::regex kAll(
      R"(\b(ParallelFor|ParallelMap|ForEachSlice|Submit)\s*\()");
  static const std::regex kSlice(
      R"(\b(ParallelFor|ParallelMap|ForEachSlice)\s*\()");
  const std::regex& trigger = slice_only ? kSlice : kAll;
  for (auto it = std::sregex_iterator(text.begin(), text.end(), trigger);
       it != std::sregex_iterator(); ++it) {
    const size_t open = static_cast<size_t>(it->position(0)) +
                        static_cast<size_t>(it->length(0)) - 1;
    const size_t close = analysis::MatchingParen(text, open);
    if (close == std::string::npos) continue;
    for (size_t scan = open + 1; scan < close;) {
      const size_t bracket = text.find('[', scan);
      if (bracket == std::string::npos || bracket >= close) break;
      ParallelLambda lambda;
      if (!analysis::ParseLambda(text, bracket, &lambda) ||
          lambda.body_begin >= close) {
        scan = bracket + 1;
        continue;
      }
      if (lambda.params_begin != std::string::npos) {
        lambda.params = ParseParamNames(text.substr(
            lambda.params_begin + 1,
            lambda.params_end - lambda.params_begin - 1));
      }
      lambda.trigger = (*it)[1].str();
      scan = lambda.body_end + 1;
      out.push_back(std::move(lambda));
    }
  }
  return out;
}

/// True when `name` has `name.reserve(...)` (or ->reserve) somewhere in
/// `scope`, the body of the function enclosing the slice lambda — the
/// capacity was provisioned, so growth calls do not allocate per iteration.
bool HasReserveIn(const std::string& scope, const std::string& name) {
  const std::regex re("\\b" + name + R"(\s*(\.|->)\s*reserve\s*\()");
  return std::regex_search(scope, re);
}

/// True when `name`'s declaration spells one of the associative container
/// types whose insert/emplace allocates a node per call.
bool DeclaredAsMapLike(const std::string& text, const std::string& name) {
  const analysis::DeclClass dc = analysis::ClassifyDeclaration(text, name);
  if (!dc.found) return false;
  static const char* kKinds[] = {"map",      "set",           "multimap",
                                 "multiset", "unordered_map", "unordered_set"};
  for (const char* kind : kKinds) {
    const std::regex word(std::string("\\b") + kind + "\\b");
    if (std::regex_search(dc.type, word)) return true;
  }
  return false;
}


// ---------------------------------------------------------------------------
// Rule 1: shared-state capture.
// ---------------------------------------------------------------------------

void CheckSharedCapture(const SourceFile& file,
                        const std::map<std::string, const FieldInfo*>& fields,
                        std::vector<Finding>* findings) {
  const std::string& text = file.stripped_text;
  std::set<std::string> seen;
  for (const ParallelLambda& lambda : FindParallelLambdas(file, false)) {
    const std::string body_text = text.substr(
        lambda.body_begin, lambda.body_end - lambda.body_begin + 1);
    const std::vector<analysis::LockScope> locks =
        analysis::CollectLockScopes(text, lambda.body_begin, lambda.body_end);
    for (const WriteRef& w :
         ExtractWrites(text, lambda.body_begin + 1, lambda.body_end)) {
      if (w.name == "this" || lambda.params.count(w.name) > 0) continue;
      // Declared inside the body: task-private scratch.
      if (analysis::ClassifyDeclaration(body_text, w.name).found) continue;
      const auto fit = fields.find(w.name);
      const FieldInfo* field = fit == fields.end() ? nullptr : fit->second;
      const bool explicit_cap = lambda.captures.named.count(w.name) > 0;
      if (field != nullptr && !explicit_cap) {
        // Fields reach the lambda through `this`; [*this] copies them.
        const auto tit = lambda.captures.named.find("this");
        const analysis::CaptureMode tmode =
            tit != lambda.captures.named.end()
                ? tit->second
                : ((lambda.captures.default_by_ref ||
                    lambda.captures.default_by_value)
                       ? analysis::CaptureMode::kByRef
                       : analysis::CaptureMode::kNone);
        if (tmode != analysis::CaptureMode::kByRef) continue;
      } else if (lambda.captures.ModeOf(w.name) !=
                 analysis::CaptureMode::kByRef) {
        continue;
      }
      analysis::DeclClass dc;
      if (field != nullptr) {
        dc.found = true;
        dc.is_const = field->is_const;
        dc.is_atomic = field->is_atomic;
        dc.is_mutex = field->is_mutex;
      } else {
        dc = analysis::ClassifyDeclaration(text, w.name);
      }
      if (dc.is_const || dc.is_atomic || dc.is_mutex) continue;
      bool under_lock = false;
      for (const analysis::LockScope& scope : locks) {
        if (w.offset >= scope.begin && w.offset < scope.end) {
          under_lock = true;
          break;
        }
      }
      if (under_lock) continue;
      const int line = analysis::LineOfOffset(text, w.offset);
      if (analysis::HasSuppressionNear(file.raw_lines, line, kSharedOk)) {
        continue;
      }
      if (!seen.insert(std::to_string(line) + ":" + w.name).second) continue;
      findings->push_back(
          {"shared-capture", file.rel, line,
           "'" + w.name + "' is captured by reference into a " +
               lambda.trigger +
               " lambda and mutated without synchronization; make it "
               "std::atomic, write to a per-slice slot, or guard it with "
               "a Mutex",
           std::string("// ") + kSharedOk + " — <why this is safe>"});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule 3: atomics orderings.
// ---------------------------------------------------------------------------

void CheckAtomics(const SourceFile& file,
                  const std::set<std::string>& atomic_fields,
                  std::vector<Finding>* findings) {
  const std::string& text = file.stripped_text;
  static const std::regex kRmw(
      R"((\.|->)\s*(fetch_add|fetch_sub|fetch_and|fetch_or|fetch_xor)"
      R"(|exchange|compare_exchange_weak|compare_exchange_strong)\s*\()");
  for (auto it = std::sregex_iterator(text.begin(), text.end(), kRmw);
       it != std::sregex_iterator(); ++it) {
    const size_t open = static_cast<size_t>(it->position(0)) +
                        static_cast<size_t>(it->length(0)) - 1;
    const size_t close = analysis::MatchingParen(text, open);
    if (close == std::string::npos) continue;
    const std::string args = text.substr(open + 1, close - open - 1);
    const std::string method = (*it)[2].str();
    const int line =
        analysis::LineOfOffset(text, static_cast<size_t>(it->position(0)));
    if (args.find("memory_order") == std::string::npos) {
      if (analysis::HasSuppressionNear(file.raw_lines, line, kOrderOk)) {
        continue;
      }
      findings->push_back(
          {"atomic-rmw-order", file.rel, line,
           "std::atomic " + method +
               " without an explicit std::memory_order (defaults to "
               "seq_cst); state the intended ordering",
           method + "(..., std::memory_order_relaxed) for pure counters, or "
                    "the ordering the algorithm needs"});
      continue;
    }
    if ((method == "fetch_add" || method == "fetch_sub") &&
        args.find("memory_order_relaxed") == std::string::npos) {
      // Pure counter: the RMW result is discarded at statement position.
      size_t i = static_cast<size_t>(it->position(0));
      while (i > 0) {
        const char c = text[i - 1];
        if (analysis::IsIdentChar(c) || c == '.') {
          --i;
          continue;
        }
        if (c == '>' && i >= 2 && text[i - 2] == '-') {
          i -= 2;
          continue;
        }
        if (c == ']') {
          int depth = 0;
          size_t q = i;
          while (q > 0) {
            --q;
            if (text[q] == ']') ++depth;
            if (text[q] == '[' && --depth == 0) break;
          }
          if (q == 0 && text[q] != '[') break;
          i = q;
          continue;
        }
        break;
      }
      const size_t prev = analysis::PrevNonSpace(text, i);
      const char pc = prev == std::string::npos ? ';' : text[prev];
      if (pc != ';' && pc != '{' && pc != '}') continue;
      if (analysis::HasSuppressionNear(file.raw_lines, line, kOrderOk)) {
        continue;
      }
      findings->push_back(
          {"atomic-counter-order", file.rel, line,
           "discarded " + method +
               " uses a non-relaxed ordering; pure counters take "
               "std::memory_order_relaxed (ServiceHealth convention)",
           method + "(..., std::memory_order_relaxed)"});
    }
  }

  // Operator RMW (++ / -- / compound assignment) on a known atomic is an
  // implicit seq_cst read-modify-write.
  auto flag_operator = [&](const std::string& name, size_t pos) {
    bool is_atomic = atomic_fields.count(name) > 0;
    if (!is_atomic) {
      is_atomic = analysis::ClassifyDeclaration(text, name).is_atomic;
    }
    if (!is_atomic) return;
    const int line = analysis::LineOfOffset(text, pos);
    if (analysis::HasSuppressionNear(file.raw_lines, line, kOrderOk)) return;
    findings->push_back(
        {"atomic-rmw-order", file.rel, line,
         "operator RMW on std::atomic '" + name +
             "' is an implicit seq_cst read-modify-write; use "
             "fetch_add/fetch_sub with an explicit std::memory_order",
         name + ".fetch_add(1, std::memory_order_relaxed)"});
  };
  std::vector<WriteRef> increments;
  AppendIncrements(text, 0, text.size(), &increments);
  for (const WriteRef& w : increments) flag_operator(w.name, w.offset);
  static const std::regex kCompound(
      R"(([A-Za-z_]\w*)\s*(\+=|-=|&=|\|=|\^=))");
  for (auto it = std::sregex_iterator(text.begin(), text.end(), kCompound);
       it != std::sregex_iterator(); ++it) {
    const size_t pos = static_cast<size_t>(it->position(1));
    if (!BaseNameOk(text, pos)) continue;
    if (IsSubscripted(text, pos + it->length(1))) continue;
    flag_operator((*it)[1].str(), pos);
  }
}

// ---------------------------------------------------------------------------
// Rule 4: allocation inside slice-parallel loops (src/ hot paths).
// ---------------------------------------------------------------------------

void CheckAllocInSlice(const SourceFile& file,
                       std::vector<Finding>* findings) {
  const std::string& text = file.stripped_text;
  std::set<std::string> seen;
  auto add = [&](size_t offset, const std::string& what,
                 const std::string& hint) {
    const int line = analysis::LineOfOffset(text, offset);
    if (analysis::HasSuppressionNear(file.raw_lines, line, kAllocOk)) return;
    if (!seen.insert(std::to_string(line) + ":" + what).second) return;
    findings->push_back(
        {"alloc-in-slice", file.rel, line,
         what + " inside the innermost loop of a slice-parallel body; " + hint,
         hint});
  };

  const std::vector<ParallelLambda> lambdas = FindParallelLambdas(file, true);
  if (lambdas.empty()) return;
  const std::vector<analysis::FunctionInfo> fns =
      analysis::CollectFunctionDefs(file);
  for (const ParallelLambda& lambda : lambdas) {
    const std::vector<analysis::LoopRange> loops = analysis::CollectLoopRanges(
        text, lambda.body_begin + 1, lambda.body_end);
    if (loops.empty()) continue;
    const std::string body = text.substr(
        lambda.body_begin, lambda.body_end - lambda.body_begin + 1);
    // A reserve() counts only in the innermost function body around the
    // lambda (the whole file when the lambda sits outside any function).
    const analysis::FunctionInfo* owner = nullptr;
    for (const analysis::FunctionInfo& fn : fns) {
      if (fn.body_begin < lambda.body_begin && lambda.body_end < fn.body_end &&
          (owner == nullptr || fn.body_begin > owner->body_begin)) {
        owner = &fn;
      }
    }
    const std::string scope =
        owner == nullptr
            ? text
            : text.substr(owner->body_begin,
                          owner->body_end - owner->body_begin + 1);

    // Direct heap constructions.
    for (const char* word : {"new", "make_unique", "make_shared"}) {
      size_t pos = lambda.body_begin;
      while ((pos = FindWord(text, word, pos, lambda.body_end)) !=
             std::string::npos) {
        if (analysis::InAnyRange(loops, pos)) {
          add(pos, std::string("'") + word + "' allocates",
              "allocate slice-owned scratch outside the loop");
        }
        pos += std::string(word).size();
      }
    }
    {
      size_t pos = lambda.body_begin;
      while ((pos = FindWord(text, "to_string", pos, lambda.body_end)) !=
             std::string::npos) {
        if (analysis::InAnyRange(loops, pos)) {
          add(pos, "'std::to_string' builds a std::string per iteration",
              "format outside the loop or into a reused buffer");
        }
        pos += 9;
      }
    }

    // Growth calls on containers with no reserve() in the enclosing function.
    static const std::regex kGrow(
        R"(([A-Za-z_]\w*)\s*(\.|->)\s*)"
        R"((push_back|emplace_back|push_front|emplace_front)\s*\()");
    for (auto it = std::sregex_iterator(body.begin(), body.end(), kGrow);
         it != std::sregex_iterator(); ++it) {
      const size_t pos =
          lambda.body_begin + static_cast<size_t>(it->position(1));
      if (!BaseNameOk(text, pos)) continue;
      if (!analysis::InAnyRange(loops, pos)) continue;
      const std::string name = (*it)[1].str();
      if (HasReserveIn(scope, name)) continue;
      add(pos, "'" + name + "." + (*it)[3].str() + "' grows an unreserved container",
          "reserve capacity up front (" + name +
              ".reserve(...)) or reuse slice-owned scratch");
    }

    // Node allocation per insert on associative containers.
    static const std::regex kInsert(
        R"(([A-Za-z_]\w*)\s*(\.|->)\s*(insert|emplace|try_emplace)\s*\()");
    for (auto it = std::sregex_iterator(body.begin(), body.end(), kInsert);
         it != std::sregex_iterator(); ++it) {
      const size_t pos =
          lambda.body_begin + static_cast<size_t>(it->position(1));
      if (!BaseNameOk(text, pos)) continue;
      if (!analysis::InAnyRange(loops, pos)) continue;
      const std::string name = (*it)[1].str();
      if (!DeclaredAsMapLike(text, name)) continue;
      if (HasReserveIn(scope, name)) continue;
      add(pos, "'" + name + "." + (*it)[3].str() +
                   "' allocates a node per insertion",
          "hoist the build out of the loop or reserve() the table");
    }

    // Container / string construction per iteration.
    static const char* kContainers[] = {"vector",        "string",
                                        "deque",         "unordered_map",
                                        "unordered_set", "map",
                                        "set"};
    for (const char* type : kContainers) {
      size_t pos = lambda.body_begin;
      const size_t tlen = std::string(type).size();
      while ((pos = FindWord(text, type, pos)) != std::string::npos &&
             pos < lambda.body_end) {
        const size_t here = pos;
        pos += tlen;
        if (!analysis::InAnyRange(loops, here)) continue;
        // `new std::vector<...>` is already reported by the new check.
        size_t back = here;
        if (back >= 2 && text[back - 1] == ':' && text[back - 2] == ':') {
          back = analysis::PrevNonSpace(text, back - 2);
          size_t b = back;
          while (b > 0 && analysis::IsIdentChar(text[b - 1])) --b;
          back = b;
        }
        const size_t bp = analysis::PrevNonSpace(text, back);
        if (bp != std::string::npos && bp >= 2 &&
            analysis::IsIdentChar(text[bp])) {
          size_t b = bp;
          while (b > 0 && analysis::IsIdentChar(text[b - 1])) --b;
          if (text.substr(b, bp - b + 1) == "new") continue;
        }
        size_t i = here + tlen;
        if (i < text.size() && text[i] == '<') {
          const size_t e = analysis::SkipTemplateArgs(text, i);
          if (e == std::string::npos) continue;
          i = e;
        }
        i = analysis::SkipWhitespace(text, i);
        if (i >= text.size()) continue;
        const char c = text[i];
        if (c == '&' || c == '*' || c == ':' || c == '>' || c == ',' ||
            c == ';' || c == ')') {
          continue;  // reference/pointer decl, nested template, scope path
        }
        if (analysis::IsIdentChar(c) && !std::isdigit(
                static_cast<unsigned char>(c))) {
          add(here, std::string("constructs a std::") + type +
                        " every iteration",
              "hoist to slice-owned scratch declared at the lambda top");
        } else if (c == '(' || c == '{') {
          add(here, std::string("creates a temporary std::") + type,
              "hoist or precompute outside the loop");
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule 2: CM_GUARDED_BY coverage for mutex-owning classes.
// ---------------------------------------------------------------------------

void CheckAnnotationCoverage(
    const std::vector<SourceFile>& files,
    const std::vector<std::vector<ClassInfo>>& classes_per_file,
    std::vector<Finding>* findings) {
  struct ClassRef {
    const ClassInfo* info;
    const SourceFile* file;
  };
  std::map<std::string, ClassRef> classes;
  std::set<std::string> ambiguous;
  for (size_t fi = 0; fi < files.size(); ++fi) {
    for (const ClassInfo& c : classes_per_file[fi]) {
      if (ambiguous.count(c.name) > 0) continue;
      if (classes.count(c.name) > 0) {
        classes.erase(c.name);
        ambiguous.insert(c.name);
        continue;
      }
      classes[c.name] = {&c, &files[fi]};
    }
  }
  std::set<std::string> mutex_owners;
  for (const auto& entry : classes) {
    if (entry.second.info->OwnsMutex()) mutex_owners.insert(entry.first);
  }
  if (mutex_owners.empty()) return;

  std::map<std::string,
           std::vector<std::pair<MethodInfo, const SourceFile*>>>
      methods;
  for (const std::string& name : mutex_owners) {
    for (const MethodInfo& m : classes[name].info->methods) {
      methods[name].push_back({m, classes[name].file});
    }
  }
  for (const SourceFile& file : files) {
    for (const MethodInfo& m :
         analysis::CollectOutOfLineMethods(file, mutex_owners)) {
      methods[m.owner].push_back({m, &file});
    }
  }

  static const std::regex kReqAnno(
      R"(\bCM_(REQUIRES|EXCLUSIVE_LOCKS_REQUIRED|SHARED_LOCKS_REQUIRED)"
      R"(|ACQUIRE|RELEASE|TRY_ACQUIRE|NO_THREAD_SAFETY_ANALYSIS)\b)");
  static const std::regex kReqArg(
      R"(\bCM_(?:REQUIRES|EXCLUSIVE_LOCKS_REQUIRED)\s*\(([^()]*)\))");
  std::set<std::string> reported_fields;
  for (const std::string& cname : mutex_owners) {
    const ClassInfo& cls = *classes[cname].info;
    const SourceFile* cls_file = classes[cname].file;
    const std::vector<std::string> mutexes = cls.MutexFieldNames();
    for (const auto& entry : methods[cname]) {
      const MethodInfo& method = entry.first;
      const SourceFile* mfile = entry.second;
      const std::string& text = mfile->stripped_text;
      if (method.body_end <= method.body_begin) continue;
      std::string anno = method.annotations;
      const auto dit = cls.decl_annotations.find(method.name);
      if (dit != cls.decl_annotations.end()) anno += " " + dit->second;
      const bool has_requires = std::regex_search(anno, kReqAnno);
      std::string requires_arg;
      std::smatch am;
      if (std::regex_search(anno, am, kReqArg)) requires_arg = am[1].str();

      std::vector<analysis::LockScope> scopes;
      for (analysis::LockScope& s : analysis::CollectLockScopes(
               text, method.body_begin, method.body_end)) {
        if (std::find(mutexes.begin(), mutexes.end(), s.mutex) !=
            mutexes.end()) {
          scopes.push_back(s);
        }
      }
      const std::string body_text = text.substr(
          method.body_begin, method.body_end - method.body_begin + 1);
      for (const WriteRef& w :
           ExtractWrites(text, method.body_begin + 1, method.body_end)) {
        const FieldInfo* field = cls.FindField(w.name);
        if (field == nullptr) continue;
        if (field->is_mutex || field->is_atomic || field->is_const ||
            field->is_static) {
          continue;
        }
        // A local declaration shadows the field inside this body.
        if (analysis::ClassifyDeclaration(body_text, w.name).found) continue;
        const analysis::LockScope* in_scope = nullptr;
        for (const analysis::LockScope& s : scopes) {
          if (w.offset >= s.begin && w.offset < s.end) {
            in_scope = &s;
            break;
          }
        }
        const int wline = analysis::LineOfOffset(text, w.offset);
        if (in_scope != nullptr || has_requires) {
          if (!field->guarded_by.empty()) continue;  // annotated: clean
          if (analysis::HasSuppressionNear(mfile->raw_lines, wline,
                                           kGuardOk)) {
            continue;
          }
          if (analysis::HasSuppressionNear(cls_file->raw_lines, field->line,
                                           kGuardOk)) {
            continue;
          }
          if (!reported_fields.insert(cname + ":" + w.name).second) continue;
          std::string mu = in_scope != nullptr ? in_scope->mutex
                                               : requires_arg;
          if (mu.empty() && !mutexes.empty()) mu = mutexes.front();
          const FieldInfo* mu_field = cls.FindField(mu);
          if (mu_field != nullptr &&
              (mu_field->type.find("unique_ptr") != std::string::npos ||
               mu_field->type.find("shared_ptr") != std::string::npos)) {
            mu = "*" + mu;
          }
          findings->push_back(
              {"guard-missing", cls.file, field->line,
               "field '" + w.name + "' of " + cname +
                   " is written under mutex '" + mu + "' (" + mfile->rel +
                   ":" + std::to_string(wline) +
                   ") but carries no CM_GUARDED_BY annotation",
               field->type + " " + w.name + " CM_GUARDED_BY(" + mu + ");"});
        } else {
          if (field->guarded_by.empty()) continue;
          if (method.is_structor) continue;  // init before sharing
          if (analysis::HasSuppressionNear(mfile->raw_lines, wline,
                                           kGuardOk)) {
            continue;
          }
          findings->push_back(
              {"requires-missing", mfile->rel, wline,
               "method " + cname + "::" + method.name + " writes '" + w.name +
                   "' (CM_GUARDED_BY(" + field->guarded_by +
                   ")) without holding the lock or declaring the "
                   "requirement",
               "annotate with CM_REQUIRES(" + field->guarded_by +
                   ") or take MutexLock in the method"});
        }
      }
    }
  }
}

// Runs every rule over the tree.
bool Analyze(const Tree& tree, std::vector<Finding>* findings, std::string*) {
  for (size_t i = 0; i < tree.files.size(); ++i) {
    const SourceFile& file = tree.files[i];
    std::map<std::string, const FieldInfo*> fields;
    std::set<std::string> atomic_fields;
    for (const ClassInfo& c : tree.classes[i]) {
      for (const FieldInfo& f : c.fields) {
        fields.emplace(f.name, &f);
        if (f.is_atomic) atomic_fields.insert(f.name);
      }
    }
    CheckSharedCapture(file, fields, findings);
    CheckAtomics(file, atomic_fields, findings);
    if (file.rel.rfind("src/", 0) == 0) CheckAllocInSlice(file, findings);
  }
  CheckAnnotationCoverage(tree.files, tree.classes, findings);
  return true;
}

// ---------------------------------------------------------------------------
// Self-test over the seeded fixture trees in tools/analysis/testdata/cmrace/.
// ---------------------------------------------------------------------------

bool SelfTest(const fs::path& testdata) {
  SelfTestRun t(testdata / "cmrace", kRace);

  // ---- capture: by-ref mutation of a local and of a field through `this`
  // fire; atomic, slot-indexed, and suppressed writes stay quiet. ----------
  {
    const FixtureResult r = t.Run("capture");
    t.Expect(r.ok, "capture fixture analyzable");
    t.Expect(r.keys.count("shared-capture:src/a.cc:18") == 1,
             "by-ref captured local accumulator detected");
    t.Expect(r.keys.count("shared-capture:src/a.cc:31") == 1,
             "field mutated through captured this detected");
    for (const Finding& f : r.findings) {
      t.Expect(f.line != 19 && f.line != 20 && f.line != 22,
               "atomic/slot-indexed/suppressed write flagged at line " +
                   std::to_string(f.line));
    }
    t.Expect(r.findings.size() == 2,
             "capture fixture yields exactly 2 findings (got " +
                 std::to_string(r.findings.size()) + ")");
  }

  // ---- guards: unannotated fields written under MutexLock or CM_REQUIRES
  // earn inferred CM_GUARDED_BY hints; the annotated field written without
  // the lock earns requires-missing; suppressed field stays quiet. --------
  {
    const FixtureResult r = t.Run("guards");
    t.Expect(r.ok, "guards fixture analyzable");
    t.Expect(r.keys.count("guard-missing:src/cache.h:25") == 1,
             "map written under lock inferred as guarded");
    t.Expect(r.keys.count("guard-missing:src/cache.h:26") == 1,
             "counter incremented under lock inferred as guarded");
    t.Expect(r.keys.count("guard-missing:src/cache.h:27") == 1,
             "field written in CM_REQUIRES body inferred as guarded");
    t.Expect(r.keys.count("requires-missing:src/s.cc:4") == 1,
             "out-of-line unlocked write of guarded field detected");
    bool hint_ok = false;
    for (const Finding& f : r.findings) {
      if (f.rule == "guard-missing" && f.line == 26) {
        hint_ok = f.fix_hint.find("CM_GUARDED_BY(mu_)") != std::string::npos;
      }
      t.Expect(f.file != "src/cache.h" || f.line != 29,
               "suppressed field flagged at its declaration");
      t.Expect(f.file != "src/s.cc" || f.line != 9,
               "locked write of annotated field flagged");
    }
    t.Expect(hint_ok, "guard-missing fix hint spells the exact annotation");
    t.Expect(r.findings.size() == 4,
             "guards fixture yields exactly 4 findings (got " +
                 std::to_string(r.findings.size()) + ")");
  }

  // ---- atomics: order-less RMW and operator RMW fire; a discarded seq_cst
  // counter earns counter-order; relaxed/used/suppressed stay quiet. -------
  {
    const FixtureResult r = t.Run("atomics");
    t.Expect(r.ok, "atomics fixture analyzable");
    t.Expect(r.keys.count("atomic-rmw-order:src/a.cc:8") == 1,
             "fetch_add without memory_order detected");
    t.Expect(r.keys.count("atomic-rmw-order:src/a.cc:9") == 1,
             "exchange without memory_order detected");
    t.Expect(r.keys.count("atomic-counter-order:src/a.cc:11") == 1,
             "discarded seq_cst counter detected");
    t.Expect(r.keys.count("atomic-rmw-order:src/a.cc:17") == 1,
             "operator++ on atomic detected");
    for (const Finding& f : r.findings) {
      t.Expect(f.line != 12 && f.line != 13 && f.line != 16 && f.line != 22,
               "relaxed/used/suppressed/explicit RMW flagged at line " +
                   std::to_string(f.line));
    }
    t.Expect(r.findings.size() == 4,
             "atomics fixture yields exactly 4 findings (got " +
                 std::to_string(r.findings.size()) + ")");
  }

  // ---- allocs: per-iteration ctor/new/string/map-insert, and growth whose
  // only reserve() is in another function, fire inside the slice loop;
  // reserved growth, loop-hoisted scratch, and suppressed inserts stay
  // quiet. -----------------------------------------------------------------
  {
    const FixtureResult r = t.Run("allocs");
    t.Expect(r.ok, "allocs fixture analyzable");
    t.Expect(r.keys.count("alloc-in-slice:src/a.cc:22") == 1,
             "vector constructed per iteration detected");
    t.Expect(r.keys.count("alloc-in-slice:src/a.cc:23") == 1,
             "naked new in slice loop detected");
    t.Expect(r.keys.count("alloc-in-slice:src/a.cc:24") == 1,
             "string constructed per iteration detected");
    t.Expect(r.keys.count("alloc-in-slice:src/a.cc:25") == 1,
             "to_string in slice loop detected");
    t.Expect(r.keys.count("alloc-in-slice:src/a.cc:40") == 1,
             "unreserved map insert in slice loop detected");
    t.Expect(r.keys.count("alloc-in-slice:src/a.cc:54") == 1,
             "growth reserved only in another function detected");
    for (const Finding& f : r.findings) {
      t.Expect(f.line != 19 && f.line != 20 && f.line != 26 && f.line != 42,
               "hoisted/reserved/suppressed allocation flagged at line " +
                   std::to_string(f.line));
    }
    t.Expect(r.findings.size() == 6,
             "allocs fixture yields exactly 6 findings (got " +
                 std::to_string(r.findings.size()) + ")");
  }

  return t.Finish(
      "cmrace self-test: every rule fires on its seeded fixtures and honors "
      "suppressions");
}

}  // namespace

const Family kRace = {"race", &Analyze, true, &SelfTest};

}  // namespace checks
