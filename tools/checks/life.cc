// life: whole-repo lifetime & view-escape rules.
//
// Four token-level rules over the stripped source tree, built on the
// tools/analysis scanning library and its lifetime model (function bodies,
// local scopes, view/ownership classification of spelled types, std::move
// tracking):
//
//   view-escape           a string_view/span/reference/pointer that outlives
//                         its backing storage: view-typed returns of owning
//                         locals (or by-value parameters), view locals bound
//                         to owning temporaries (cross-file return-type
//                         resolution), and view members bound to locals or
//                         parameters of the binding method. Suppress:
//                         `// cmlife: view-ok — <why>`.
//   deferred-capture-     by-reference captures of frame-local state
//   lifetime              escaping the frame: lambdas passed to
//                         Submit/Enqueue-style deferred sinks with no
//                         Wait/Join downstream, lambdas stored into
//                         std::function members, and returned lambdas.
//                         Suppress: `// cmlife: deferred-ok — <why>`.
//   invalidated-reference references, data()/c_str() pointers, and
//                         iterators into a container used after a mutating
//                         call (push_back, erase, resize, ...) on that
//                         container; the `it = c.erase(it)` refresh idiom
//                         and rebinding revalidate. Suppress:
//                         `// cmlife: invalidate-ok — <why>`.
//   use-after-move        reads of a local/parameter after std::move
//                         consumed it; reassignment and reset()/clear()/
//                         assign() revive, `return std::move(x)` ends the
//                         path, and moves inside loop bodies are skipped
//                         (linear order is not execution order). Suppress:
//                         `// cmlife: move-ok — <why>`.
//
// This is the static complement to ASan and the IO fault-injection tests:
// those catch the dangles a test actually executes; these rules prove the
// whole tree follows the zero-copy view discipline without running it.
// Token-level like the other families: deliberately conservative — "not
// provably a frame-local bind" means "do not flag".
//
// The `life` family of cmcheck (see checks/family.h).

#include <algorithm>
#include <cctype>
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

using analysis::CaptureList;
using analysis::CaptureMode;
using analysis::ClassInfo;
using analysis::FieldInfo;
using analysis::Finding;
using analysis::FindWord;
using analysis::FunctionInfo;
using analysis::LocalVar;
using analysis::MoveUse;
using analysis::ParamInfo;
using analysis::SourceFile;
using analysis::TypeOwnership;

namespace {

constexpr char kViewOk[] = "cmlife: view-ok";
constexpr char kDeferredOk[] = "cmlife: deferred-ok";
constexpr char kInvalidateOk[] = "cmlife: invalidate-ok";
constexpr char kMoveOk[] = "cmlife: move-ok";

constexpr char kRuleView[] = "view-escape";
constexpr char kRuleDeferred[] = "deferred-capture-lifetime";
constexpr char kRuleInvalidate[] = "invalidated-reference";
constexpr char kRuleMove[] = "use-after-move";

// ---------------------------------------------------------------------------
// Small token helpers over stripped text.
// ---------------------------------------------------------------------------

/// True when the occurrence at `pos` names the object itself rather than a
/// same-named member of something else (`world.registry` is not the local
/// `registry`).
bool IsBaseOccurrence(const std::string& text, size_t pos) {
  if (pos == 0) return true;
  const char prev = text[pos - 1];
  if (prev == '.' || prev == ':') return false;
  if (prev == '>' && pos >= 2 && text[pos - 2] == '-') return false;
  return true;
}

/// Base-name occurrence of `word` in text[from, limit); npos when none.
size_t FindBaseWord(const std::string& text, const std::string& word,
                    size_t from, size_t limit) {
  size_t pos = from;
  while ((pos = FindWord(text, word, pos, limit)) != std::string::npos) {
    if (IsBaseOccurrence(text, pos)) return pos;
    pos += word.size();
  }
  return std::string::npos;
}

/// The identifier token ending at the last non-space before `pos` ("" when
/// the preceding token is not an identifier).
std::string TokenBefore(const std::string& text, size_t pos) {
  const size_t p = analysis::PrevNonSpace(text, pos);
  if (p == std::string::npos || !analysis::IsIdentChar(text[p])) return "";
  size_t b = p;
  while (b > 0 && analysis::IsIdentChar(text[b - 1])) --b;
  return text.substr(b, p - b + 1);
}

std::string Trimmed(const std::string& s) {
  size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

/// Extent of the statement containing `pos`: (just past the previous
/// ';'/'{'/'}', offset of the next ';').
std::pair<size_t, size_t> StatementExtent(const std::string& text, size_t pos) {
  size_t b = pos;
  while (b > 0 && text[b - 1] != ';' && text[b - 1] != '{' && text[b - 1] != '}') {
    --b;
  }
  size_t e = text.find(';', pos);
  if (e == std::string::npos) e = text.size();
  return {b, e};
}

/// Emits one finding unless a `marker` suppression comment sits on the
/// finding line or the line above.
void Emit(const SourceFile& file, const char* rule, int line,
          std::string message, std::string fix_hint, const char* marker,
          std::vector<Finding>* findings) {
  if (analysis::HasSuppressionNear(file.raw_lines, line, marker)) return;
  findings->push_back(
      {rule, file.rel, line, std::move(message), std::move(fix_hint)});
}

/// The most recent declaration of `name` before `pos` among `locals`
/// (innermost shadow wins); nullptr when `name` is not a known local there.
const LocalVar* LocalBefore(const std::vector<LocalVar>& locals,
                            const std::string& name, size_t pos) {
  const LocalVar* best = nullptr;
  for (const LocalVar& v : locals) {
    if (v.name != name || v.decl_offset >= pos) continue;
    if (best == nullptr || v.decl_offset > best->decl_offset) best = &v;
  }
  return best;
}

/// Initializer expression of the local declared at `var.decl_offset`
/// (`= expr;`, `(expr)`, or `{expr}` forms). Returns false when the
/// declaration carries no initializer. `*expr_begin` is the offset of the
/// expression's first character; `*stmt_end` the declaration's ';'.
bool InitializerOf(const std::string& text, const LocalVar& var,
                   std::string* expr, size_t* expr_begin, size_t* stmt_end) {
  size_t i = analysis::SkipWhitespace(text, var.decl_offset + var.name.size());
  if (i >= text.size()) return false;
  if (text[i] == '=') {
    const size_t b = i + 1;
    const size_t e = text.find(';', b);
    if (e == std::string::npos) return false;
    *expr = Trimmed(text.substr(b, e - b));
    *expr_begin = b;
    *stmt_end = e;
    return !expr->empty();
  }
  if (text[i] == '(' || text[i] == '{') {
    const size_t close = text[i] == '(' ? analysis::MatchingParen(text, i)
                                        : analysis::MatchingBrace(text, i);
    if (close == std::string::npos) return false;
    *expr = Trimmed(text.substr(i + 1, close - i - 1));
    *expr_begin = i + 1;
    size_t e = text.find(';', close);
    if (e == std::string::npos) e = text.size();
    *stmt_end = e;
    return !expr->empty();
  }
  return false;
}

// ---------------------------------------------------------------------------
// Rule 1: view-escape.
// ---------------------------------------------------------------------------

const char* OwnershipNoun(TypeOwnership o) {
  switch (o) {
    case TypeOwnership::kView:
      return "view";
    case TypeOwnership::kReference:
      return "reference";
    case TypeOwnership::kPointer:
      return "pointer";
    case TypeOwnership::kIterator:
      return "iterator";
    case TypeOwnership::kOwning:
      break;
  }
  return "value";
}

std::string ViewHint() {
  return std::string("// ") + kViewOk +
         " — <why the backing storage outlives the view>";
}

/// Parses a return expression of the shapes the rule understands:
/// `[&*] name`, `name[...]`, `name.data()/.c_str()/.front()/.back()/.at(...)/
/// .begin()`. Returns the base identifier or "" when the shape is something
/// else (conservatively not flagged).
std::string ReturnExprBase(const std::string& expr) {
  static const std::regex kBase(
      R"(^[&*]?\s*([A-Za-z_]\w*)\s*((\[|\.\s*(data|c_str|front|back|at|begin)\s*\().*)?$)");
  std::smatch m;
  if (!std::regex_match(expr, m, kBase)) return "";
  return m[1].str();
}

void CheckViewEscape(
    const SourceFile& file, const std::vector<FunctionInfo>& fns,
    const std::map<std::string, TypeOwnership>& return_ownership,
    const std::set<std::string>& view_fields, std::vector<Finding>* findings) {
  const std::string& text = file.stripped_text;
  for (const FunctionInfo& fn : fns) {
    const std::vector<LocalVar> locals =
        analysis::CollectLocalVars(text, fn.body_begin + 1, fn.body_end);
    const TypeOwnership ret_own =
        analysis::ClassifyTypeOwnership(fn.return_type);

    // 1a: view-typed return of an owning local or by-value parameter.
    if (ret_own != TypeOwnership::kOwning && !fn.return_type.empty()) {
      size_t pos = fn.body_begin + 1;
      while ((pos = FindWord(text, "return", pos, fn.body_end)) !=
             std::string::npos) {
        const size_t ret_pos = pos;
        pos += 6;
        size_t semi = text.find(';', ret_pos);
        if (semi == std::string::npos || semi > fn.body_end) continue;
        const std::string base =
            ReturnExprBase(Trimmed(text.substr(ret_pos + 6, semi - ret_pos - 6)));
        if (base.empty()) continue;
        const LocalVar* local = LocalBefore(locals, base, ret_pos);
        bool frame_local = false;
        if (local != nullptr) {
          frame_local =
              local->ownership == TypeOwnership::kOwning && !local->is_static;
        } else if (const ParamInfo* param = fn.FindParam(base)) {
          frame_local = param->ownership == TypeOwnership::kOwning;
        }
        if (!frame_local) continue;
        const int line = analysis::LineOfOffset(text, ret_pos);
        Emit(file, kRuleView, line,
             "returns a " + std::string(OwnershipNoun(ret_own)) + " into '" +
                 base + "', a frame-local owning object that dies when " +
                 fn.name + "() returns",
             ViewHint(), kViewOk, findings);
      }
    }

    // 1b: view local bound to an owning temporary returned by a call the
    // tree declares somewhere (cross-file return-type resolution).
    for (const LocalVar& var : locals) {
      if (var.ownership != TypeOwnership::kView) continue;
      std::string expr;
      size_t expr_begin = 0, stmt_end = 0;
      if (!InitializerOf(text, var, &expr, &expr_begin, &stmt_end)) continue;
      const size_t open = expr.find('(');
      if (open == std::string::npos) continue;
      const size_t close = analysis::MatchingParen(expr, open);
      if (close == std::string::npos || !Trimmed(expr.substr(close + 1)).empty()) {
        continue;  // not a single whole-expression call
      }
      // Callee: identifier immediately left of the '(' (methods and
      // ns-qualified calls resolve by their last component).
      size_t e = open;
      while (e > 0 && std::isspace(static_cast<unsigned char>(expr[e - 1]))) --e;
      size_t b = e;
      while (b > 0 && analysis::IsIdentChar(expr[b - 1])) --b;
      if (b == e) continue;
      const std::string callee = expr.substr(b, e - b);
      const auto it = return_ownership.find(callee);
      if (it == return_ownership.end() ||
          it->second != TypeOwnership::kOwning) {
        continue;
      }
      const int line = analysis::LineOfOffset(text, var.decl_offset);
      Emit(file, kRuleView, line,
           "view '" + var.name + "' binds the owning temporary returned by " +
               callee + "(); the backing bytes die at the end of this "
               "statement",
           ViewHint(), kViewOk, findings);
    }

    // 1c: view member bound to a local or parameter of the binding method.
    {
      static const std::regex kBind(
          R"(([A-Za-z_]\w*)\s*=\s*([A-Za-z_]\w*)\s*;)");
      const std::string body =
          text.substr(fn.body_begin + 1, fn.body_end - fn.body_begin - 1);
      for (auto it = std::sregex_iterator(body.begin(), body.end(), kBind);
           it != std::sregex_iterator(); ++it) {
        const std::string lhs = (*it)[1].str();
        const std::string rhs = (*it)[2].str();
        if (view_fields.count(lhs) == 0) continue;
        const size_t site =
            fn.body_begin + 1 + static_cast<size_t>(it->position(1));
        const char* what = nullptr;
        const LocalVar* local = LocalBefore(locals, rhs, site);
        if (local != nullptr) {
          if (local->is_static) continue;
          what = "local";
        } else if (fn.FindParam(rhs) != nullptr) {
          what = "parameter";
        }
        if (what == nullptr) continue;
        const int line = analysis::LineOfOffset(text, site);
        Emit(file, kRuleView, line,
             "view member '" + lhs + "' binds " + what + " '" + rhs +
                 "', whose storage dies when " + fn.name +
                 "() returns; the member dangles afterwards",
             ViewHint(), kViewOk, findings);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule 2: deferred-capture-lifetime.
// ---------------------------------------------------------------------------

std::string DeferredHint() {
  return std::string("// ") + kDeferredOk +
         " — <what joins or drains the task before the frame dies>";
}

void CheckDeferredCapture(const SourceFile& file,
                          const std::vector<FunctionInfo>& fns,
                          const std::set<std::string>& function_fields,
                          std::vector<Finding>* findings) {
  const std::string& text = file.stripped_text;
  static const std::regex kSubmitSink(
      R"(\b(Submit|SubmitTask|Enqueue|Post|Dispatch|Schedule|Defer|Async)\s*\()");
  static const std::regex kStoreSink(R"(([A-Za-z_]\w*)\s*=\s*\[)");
  static const std::regex kReturnSink(R"(\breturn\s*\[)");
  static const std::regex kJoinLike(
      R"(\b(Wait|WaitAll|Join|JoinAll|Drain|Flush|Barrier)\s*\()");

  for (const FunctionInfo& fn : fns) {
    const std::vector<LocalVar> locals =
        analysis::CollectLocalVars(text, fn.body_begin + 1, fn.body_end);
    const std::string body =
        text.substr(fn.body_begin + 1, fn.body_end - fn.body_begin - 1);
    const size_t base = fn.body_begin + 1;

    // One entry per sink: the lambda's '[' plus how the closure escapes.
    struct Sink {
      size_t open = 0;  ///< '[' offset in `text`.
      std::string how;
      bool joinable = false;  ///< Wait/Join downstream cancels the escape.
      size_t after = 0;       ///< Offset the join scan starts from.
    };
    std::vector<Sink> sinks;

    for (auto it = std::sregex_iterator(body.begin(), body.end(), kSubmitSink);
         it != std::sregex_iterator(); ++it) {
      const size_t open_paren = base + static_cast<size_t>(it->position(0)) +
                                static_cast<size_t>(it->length(0)) - 1;
      const size_t close_paren = analysis::MatchingParen(text, open_paren);
      if (close_paren == std::string::npos) continue;
      for (size_t b = open_paren + 1; b < close_paren; ++b) {
        if (text[b] != '[') continue;
        CaptureList caps;
        size_t intro_end = 0;
        if (!analysis::ParseCaptureList(text, b, &caps, &intro_end)) continue;
        Sink s;
        s.open = b;
        s.how = "a task handed to " + (*it)[1].str() + "()";
        s.joinable = true;
        s.after = close_paren;
        sinks.push_back(s);
        break;
      }
    }
    for (auto it = std::sregex_iterator(body.begin(), body.end(), kStoreSink);
         it != std::sregex_iterator(); ++it) {
      const std::string field = (*it)[1].str();
      if (function_fields.count(field) == 0) continue;
      Sink s;
      s.open = base + static_cast<size_t>(it->position(0)) +
               static_cast<size_t>(it->length(0)) - 1;
      s.how = "a callback stored into '" + field + "'";
      sinks.push_back(s);
    }
    for (auto it = std::sregex_iterator(body.begin(), body.end(), kReturnSink);
         it != std::sregex_iterator(); ++it) {
      Sink s;
      s.open = base + static_cast<size_t>(it->position(0)) +
               static_cast<size_t>(it->length(0)) - 1;
      s.how = "a lambda returned to the caller";
      sinks.push_back(s);
    }

    for (const Sink& sink : sinks) {
      CaptureList caps;
      size_t intro_end = 0;
      if (!analysis::ParseCaptureList(text, sink.open, &caps, &intro_end)) {
        continue;
      }
      if (sink.joinable) {
        const std::string tail =
            text.substr(sink.after, fn.body_end - sink.after);
        if (std::regex_search(tail, kJoinLike)) continue;
      }
      // A frame-local name is an offender when the closure aliases it by
      // reference: explicitly, or through a [&] default the body exercises.
      auto frame_local = [&](const std::string& name) {
        const LocalVar* local = LocalBefore(locals, name, sink.open);
        if (local != nullptr) {
          return local->ownership == TypeOwnership::kOwning &&
                 !local->is_static;
        }
        const ParamInfo* param = fn.FindParam(name);
        return param != nullptr && param->ownership == TypeOwnership::kOwning;
      };
      std::vector<std::string> offenders;
      for (const auto& [name, mode] : caps.named) {
        if (mode != CaptureMode::kByRef || name == "this") continue;
        if (frame_local(name)) offenders.push_back(name);
      }
      analysis::LambdaInfo lambda;
      if (caps.default_by_ref &&
          analysis::ParseLambda(text, sink.open, &lambda)) {
        auto consider = [&](const std::string& name) {
          if (caps.named.count(name) > 0) return;  // explicit mode wins
          if (!frame_local(name)) return;
          if (FindWord(text, name, lambda.body_begin + 1, lambda.body_end) ==
              std::string::npos) {
            return;
          }
          if (std::find(offenders.begin(), offenders.end(), name) ==
              offenders.end()) {
            offenders.push_back(name);
          }
        };
        for (const LocalVar& v : locals) {
          if (v.decl_offset < sink.open) consider(v.name);
        }
        for (const ParamInfo& p : fn.params) consider(p.name);
      }
      if (offenders.empty()) continue;
      std::string named = "'" + offenders[0] + "'";
      for (size_t i = 1; i < offenders.size() && i < 3; ++i) {
        named += ", '" + offenders[i] + "'";
      }
      const int line = analysis::LineOfOffset(text, sink.open);
      Emit(file, kRuleDeferred, line,
           "by-reference capture of frame-local " + named + " escapes " +
               fn.name + "() as " + sink.how +
               "; the closure can run after the frame is gone",
           DeferredHint(), kDeferredOk, findings);
    }
  }
}

// ---------------------------------------------------------------------------
// Rule 3: invalidated-reference.
// ---------------------------------------------------------------------------

std::string InvalidateHint() {
  return std::string("// ") + kInvalidateOk +
         " — <why capacity or topology cannot change here>";
}

void CheckInvalidatedRefs(const SourceFile& file,
                          const std::vector<FunctionInfo>& fns,
                          std::vector<Finding>* findings) {
  const std::string& text = file.stripped_text;
  // Container mutators that may reallocate or retopologize storage.
  static const char kMutators[] =
      "push_back|emplace_back|pop_back|push_front|pop_front|emplace_front|"
      "insert|emplace|try_emplace|erase|clear|resize|reserve|shrink_to_fit|"
      "assign|append|Rebalance|Compact";
  static const std::regex kIterInit(
      R"(^&?\s*([A-Za-z_]\w*)\s*(?:\.|->)\s*)"
      R"((begin|end|rbegin|rend|cbegin|cend|find|lower_bound|upper_bound)\s*\()");
  static const std::regex kPtrInit(
      R"(^&?\s*([A-Za-z_]\w*)\s*(?:\.|->)\s*(data|c_str)\s*\()");
  static const std::regex kElemInit(
      R"(^(&?)\s*([A-Za-z_]\w*)\s*(\[|(?:\.|->)\s*(front|back|at)\s*\())");

  for (const FunctionInfo& fn : fns) {
    const std::vector<LocalVar> locals =
        analysis::CollectLocalVars(text, fn.body_begin + 1, fn.body_end);
    for (const LocalVar& var : locals) {
      std::string expr;
      size_t expr_begin = 0, stmt_end = 0;
      if (!InitializerOf(text, var, &expr, &expr_begin, &stmt_end)) continue;
      const bool is_auto = analysis::ClassifyTypeOwnership(var.type) ==
                               TypeOwnership::kOwning &&
                           var.type.find("auto") != std::string::npos;
      std::string cont;
      std::string how;
      std::smatch m;
      if (std::regex_search(expr, m, kIterInit)) {
        if (var.ownership == TypeOwnership::kIterator || is_auto) {
          cont = m[1].str();
          how = "iterator";
        }
      } else if (std::regex_search(expr, m, kPtrInit)) {
        if (var.ownership == TypeOwnership::kPointer || is_auto) {
          cont = m[1].str();
          how = "pointer";
        }
      } else if (std::regex_search(expr, m, kElemInit)) {
        const bool addr = m[1].length() > 0;
        if ((var.ownership == TypeOwnership::kReference && !addr) ||
            (var.ownership == TypeOwnership::kPointer && addr)) {
          cont = m[2].str();
          how = var.ownership == TypeOwnership::kReference ? "reference"
                                                           : "pointer";
        }
      }
      if (cont.empty() || cont == var.name) continue;

      // Event walk: mutations of `cont` invalidate, rebinds of the bound
      // name revalidate, a use while invalid is the finding.
      const std::regex mut_re("\\b" + cont + R"(\s*(?:\.|->)\s*()" +
                              kMutators + R"()\s*\()");
      struct Event {
        size_t offset;
        bool is_mutation;
        std::string mutator;
      };
      std::vector<Event> events;
      const size_t scan_end = std::min(var.scope_end, fn.body_end);
      const std::string tail = text.substr(stmt_end, scan_end - stmt_end);
      for (auto it = std::sregex_iterator(tail.begin(), tail.end(), mut_re);
           it != std::sregex_iterator(); ++it) {
        events.push_back({stmt_end + static_cast<size_t>(it->position(0)),
                          true, (*it)[1].str()});
      }
      size_t upos = stmt_end;
      while ((upos = FindBaseWord(text, var.name, upos, scan_end)) !=
             std::string::npos) {
        events.push_back({upos, false, ""});
        upos += var.name.size();
      }
      std::sort(events.begin(), events.end(),
                [](const Event& a, const Event& b) {
                  return a.offset < b.offset;
                });

      bool valid = true;
      std::string invalidator;
      size_t skip_until = 0;
      for (const Event& ev : events) {
        if (ev.is_mutation) {
          const auto [sb, se] = StatementExtent(text, ev.offset);
          const std::string stmt = text.substr(sb, se - sb);
          const std::regex rebind_re("\\b" + var.name + R"(\s*=(?!=))");
          if (std::regex_search(stmt, rebind_re)) {
            valid = true;  // `it = c.erase(it)` refresh idiom
          } else {
            valid = false;
            invalidator = cont + "." + ev.mutator + "()";
          }
          // Uses inside the mutating statement itself fed the call
          // (`c.erase(it)` consumes a still-valid iterator).
          skip_until = se;
          continue;
        }
        if (ev.offset < skip_until) continue;
        const size_t after =
            analysis::SkipWhitespace(text, ev.offset + var.name.size());
        if (after < text.size() && text[after] == '=' &&
            (after + 1 >= text.size() || text[after + 1] != '=')) {
          valid = true;  // rebound to something new
          continue;
        }
        if (!valid) {
          const int line = analysis::LineOfOffset(text, ev.offset);
          Emit(file, kRuleInvalidate, line,
               how + " '" + var.name + "' into '" + cont + "' is used after " +
                   invalidator + " may have invalidated it",
               InvalidateHint(), kInvalidateOk, findings);
          break;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule 4: use-after-move.
// ---------------------------------------------------------------------------

std::string MoveHint() {
  return std::string("// ") + kMoveOk +
         " — <why reading the moved-from object is intended>";
}

void CheckUseAfterMove(const SourceFile& file,
                       const std::vector<FunctionInfo>& fns,
                       std::vector<Finding>* findings) {
  const std::string& text = file.stripped_text;
  static const std::set<std::string> kRevivers = {"reset", "clear", "assign",
                                                  "swap", "emplace", "Open"};
  for (const FunctionInfo& fn : fns) {
    const std::vector<LocalVar> locals =
        analysis::CollectLocalVars(text, fn.body_begin + 1, fn.body_end);
    const std::vector<analysis::LoopRange> loops =
        analysis::CollectLoopRanges(text, fn.body_begin + 1, fn.body_end);
    const std::vector<MoveUse> moves =
        analysis::CollectMoves(text, fn.body_begin + 1, fn.body_end);
    for (const MoveUse& mv : moves) {
      // Linear order is not execution order across loop iterations.
      if (analysis::InAnyRange(loops, mv.offset)) continue;
      const std::string before = TokenBefore(text, mv.offset);
      if (before == "return" || before == "co_return") continue;
      size_t scope_end = 0;
      if (const LocalVar* local = LocalBefore(locals, mv.name, mv.offset)) {
        scope_end = std::min(local->scope_end, fn.body_end);
      } else if (fn.FindParam(mv.name) != nullptr) {
        scope_end = fn.body_end;
      } else {
        continue;  // member/global: name-level tracking cannot follow it
      }
      // A control-flow exit inside the move's innermost scope (the early
      // `return` of a cache-hit branch, a loop `break`) ends the moved-from
      // path: code after that scope runs only when the move did not.
      const size_t move_scope_close =
          std::min(analysis::EnclosingScopeEnd(text, mv.offset), scope_end);
      size_t scan_end = scope_end;
      for (const char* exit_tok :
           {"return", "co_return", "break", "continue", "goto", "throw"}) {
        const size_t at = FindWord(text, exit_tok, mv.end, move_scope_close);
        if (at != std::string::npos) scan_end = std::min(scan_end, at);
      }
      const int move_line = analysis::LineOfOffset(text, mv.offset);
      size_t pos = mv.end;
      while ((pos = FindBaseWord(text, mv.name, pos, scan_end)) !=
             std::string::npos) {
        const size_t use = pos;
        pos += mv.name.size();
        const size_t after = analysis::SkipWhitespace(text, pos);
        if (after < text.size() && text[after] == '=' &&
            (after + 1 >= text.size() || text[after + 1] != '=')) {
          break;  // reassignment revives the object
        }
        if (after + 1 < text.size() &&
            (text[after] == '.' ||
             (text[after] == '-' && text[after + 1] == '>'))) {
          size_t mb = analysis::SkipWhitespace(
              text, after + (text[after] == '.' ? 1 : 2));
          size_t me = mb;
          while (me < text.size() && analysis::IsIdentChar(text[me])) ++me;
          if (kRevivers.count(text.substr(mb, me - mb)) > 0) break;
        }
        const int line = analysis::LineOfOffset(text, use);
        Emit(file, kRuleMove, line,
             "'" + mv.name + "' is read here after std::move on line " +
                 std::to_string(move_line) + " consumed it",
             MoveHint(), kMoveOk, findings);
        break;  // one finding per move site
      }
    }
  }
}

// Runs every rule over the tree.
bool Analyze(const Tree& tree, std::vector<Finding>* findings, std::string*) {
  const std::vector<SourceFile>& files = tree.files;
  // Cross-file maps: function return ownership (declarations included, so a
  // header prototype is enough) and field classification. Names the tree
  // spells inconsistently are erased — ambiguity means "do not flag".
  std::map<std::string, TypeOwnership> return_ownership;
  std::set<std::string> ambiguous_returns;
  std::map<std::string, std::set<std::string>> field_kinds;
  std::vector<std::vector<FunctionInfo>> fns_per_file;
  fns_per_file.reserve(files.size());
  for (size_t i = 0; i < files.size(); ++i) {
    std::vector<FunctionInfo> all =
        analysis::CollectFunctionDefs(files[i], /*include_decls=*/true);
    for (const FunctionInfo& fn : all) {
      if (fn.return_type.empty() ||
          fn.return_type.find("auto") != std::string::npos) {
        continue;
      }
      const TypeOwnership own =
          analysis::ClassifyTypeOwnership(fn.return_type);
      const auto [it, inserted] = return_ownership.emplace(fn.name, own);
      if (!inserted && it->second != own) ambiguous_returns.insert(fn.name);
    }
    for (const ClassInfo& c : tree.classes[i]) {
      for (const FieldInfo& f : c.fields) {
        std::string kind = "other";
        if (analysis::ClassifyTypeOwnership(f.type) == TypeOwnership::kView) {
          kind = "view";
        } else if (std::regex_search(f.type,
                                     std::regex(R"(\bfunction\b|\bCallback\b)"))) {
          kind = "function";
        }
        field_kinds[f.name].insert(kind);
      }
    }
    // Definitions only (bodies) drive the per-file rules.
    std::vector<FunctionInfo> defs;
    for (FunctionInfo& fn : all) {
      if (fn.has_body()) defs.push_back(std::move(fn));
    }
    fns_per_file.push_back(std::move(defs));
  }
  for (const std::string& name : ambiguous_returns) {
    return_ownership.erase(name);
  }
  std::set<std::string> view_fields, function_fields;
  for (const auto& [name, kinds] : field_kinds) {
    if (kinds.size() != 1) continue;
    if (kinds.count("view") > 0) view_fields.insert(name);
    if (kinds.count("function") > 0) function_fields.insert(name);
  }

  for (size_t i = 0; i < files.size(); ++i) {
    const SourceFile& file = files[i];
    const std::vector<FunctionInfo>& fns = fns_per_file[i];
    CheckViewEscape(file, fns, return_ownership, view_fields, findings);
    CheckDeferredCapture(file, fns, function_fields, findings);
    CheckInvalidatedRefs(file, fns, findings);
    CheckUseAfterMove(file, fns, findings);
  }
  return true;
}

// ---------------------------------------------------------------------------
// Self-test over the seeded fixture trees in tools/analysis/testdata/cmlife/.
// ---------------------------------------------------------------------------

bool SelfTest(const fs::path& testdata) {
  SelfTestRun t(testdata / "cmlife", kLife);

  // ---- views: view returns of locals, view-of-temporary binds, and view
  // members bound to parameters fire; static locals, view-returning calls,
  // owned returns, member-to-member binds, suppressed stay quiet. ----------
  {
    const FixtureResult r = t.Run("views");
    t.Expect(r.ok, "views fixture analyzable");
    t.Expect(r.keys.count("view-escape:src/a.cc:10") == 1,
             "view return of owning local detected");
    t.Expect(r.keys.count("view-escape:src/a.cc:16") == 1,
             "data() pointer return of local vector detected");
    t.Expect(r.keys.count("view-escape:src/a.cc:21") == 1,
             "view of owning temporary (cross-file return type) detected");
    t.Expect(r.keys.count("view-escape:src/a.cc:29") == 1,
             "view member bound to parameter detected");
    bool hint_ok = false;
    for (const Finding& f : r.findings) {
      if (f.line == 10) {
        hint_ok = f.fix_hint.find(kViewOk) != std::string::npos;
      }
      t.Expect(
          f.line != 39 && f.line != 44 && f.line != 51 && f.line != 57 &&
              f.line != 68,
          "static/view-chain/owned/member-bind/suppressed flagged at line " +
              std::to_string(f.line));
    }
    t.Expect(hint_ok, "view-escape fix hint spells the suppression marker");
    t.Expect(r.findings.size() == 4,
             "views fixture yields exactly 4 findings (got " +
                 std::to_string(r.findings.size()) + ")");
  }

  // ---- deferred: by-ref captures into Submit without Wait, [&] defaults,
  // stored std::function members, and returned lambdas fire; Wait-joined,
  // by-value, and suppressed stay quiet. -----------------------------------
  {
    const FixtureResult r = t.Run("deferred");
    t.Expect(r.ok, "deferred fixture analyzable");
    t.Expect(r.keys.count("deferred-capture-lifetime:src/a.cc:22") == 1,
             "by-ref capture into fire-and-forget Submit detected");
    t.Expect(r.keys.count("deferred-capture-lifetime:src/a.cc:28") == 1,
             "default [&] capture the task body uses detected");
    t.Expect(r.keys.count("deferred-capture-lifetime:src/a.cc:34") == 1,
             "by-ref capture stored into std::function member detected");
    t.Expect(r.keys.count("deferred-capture-lifetime:src/a.cc:40") == 1,
             "returned lambda referencing dead frame detected");
    for (const Finding& f : r.findings) {
      t.Expect(f.line != 46 && f.line != 53 && f.line != 59 && f.line != 66,
               "waited/by-value/suppressed capture flagged at line " +
                   std::to_string(f.line));
    }
    t.Expect(r.findings.size() == 4,
             "deferred fixture yields exactly 4 findings (got " +
                 std::to_string(r.findings.size()) + ")");
  }

  // ---- invalidate: element reference across push_back, data() across
  // resize, iterator across erase fire; use-before-mutation, the
  // erase-refresh idiom, value copies, and suppressed stay quiet. ----------
  {
    const FixtureResult r = t.Run("invalidate");
    t.Expect(r.ok, "invalidate fixture analyzable");
    t.Expect(r.keys.count("invalidated-reference:src/a.cc:15") == 1,
             "element reference used across push_back detected");
    t.Expect(r.keys.count("invalidated-reference:src/a.cc:22") == 1,
             "data() pointer used across resize detected");
    t.Expect(r.keys.count("invalidated-reference:src/a.cc:29") == 1,
             "map iterator used across erase detected");
    for (const Finding& f : r.findings) {
      t.Expect(f.line != 35 && f.line != 43 && f.line != 50 && f.line != 58,
               "pre-mutation/refreshed/copied/suppressed use flagged at line " +
                   std::to_string(f.line));
    }
    t.Expect(r.findings.size() == 3,
             "invalidate fixture yields exactly 3 findings (got " +
                 std::to_string(r.findings.size()) + ")");
  }

  // ---- moves: read-after-move and double-move fire; reassignment,
  // reset(), loop-body moves, return-moves, and suppressed stay quiet. -----
  {
    const FixtureResult r = t.Run("moves");
    t.Expect(r.ok, "moves fixture analyzable");
    t.Expect(r.keys.count("use-after-move:src/a.cc:16") == 1,
             "read after move detected");
    t.Expect(r.keys.count("use-after-move:src/a.cc:23") == 1,
             "double move detected");
    for (const Finding& f : r.findings) {
      t.Expect(f.line != 31 && f.line != 38 && f.line != 46 && f.line != 53 &&
                   f.line != 61,
               "revived/loop/return-move/suppressed read flagged at line " +
                   std::to_string(f.line));
    }
    t.Expect(r.findings.size() == 2,
             "moves fixture yields exactly 2 findings (got " +
                 std::to_string(r.findings.size()) + ")");
  }

  return t.Finish(
      "cmlife self-test: every rule fires on its seeded fixtures and honors "
      "suppressions");
}

}  // namespace

const Family kLife = {"life", &Analyze, true, &SelfTest};

}  // namespace checks
