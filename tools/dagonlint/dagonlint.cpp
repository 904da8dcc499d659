// dagonlint — Dagon's determinism-, unit-safety- and architecture-audit
// static-analysis pass.
//
// Every claim this reproduction makes rests on bit-identical
// determinism: the parallel sweep engine, the faults-off fingerprint
// pins, and the cross-build 24-row verification all assume no hidden
// nondeterminism in the control plane. Fingerprint comparisons catch a
// regression only after a full sweep diverges; dagonlint catches the
// *source* of one at lint time.
//
// It is a token-level (AST-lite) scanner — no libclang, no compile
// database — over the rules in kRules:
//
//   unordered-iter   range/iterator iteration over std::unordered_map /
//                    std::unordered_set outside dagon::sorted_view() /
//                    sorted_keys(). Hash-walk order is the number-one
//                    fingerprint hazard (DESIGN.md §9).
//   nondet-source    rand()/srand(), std::random_device, time(),
//                    std::chrono::system_clock, getenv: ambient
//                    nondeterminism outside the seeded RNG streams.
//   ptr-order        ordering or hashing pointer *values*
//                    (std::less/greater/hash over T*, uintptr_t
//                    reinterpret_casts): allocator-dependent order.
//   float-accum      uncommented float/double accumulation in loops:
//                    FP addition is not associative, so a reduction's
//                    value depends on its order. A justifying comment
//                    on the same or preceding line satisfies the rule.
//   raw-transition   direct assignment to a lifecycle field (status /
//                    state / health / residency, and _-suffixed member
//                    or prefixed forms). Every lifecycle write must go
//                    through fsm::transition() so illegal edges throw
//                    (debug) or count (release) instead of silently
//                    corrupting the run.
//   enum-switch-default
//                    `default:` arm in a switch over a dagon
//                    `enum class`: it swallows the -Wswitch-enum
//                    exhaustiveness guarantee, so a new enumerator
//                    falls through silently instead of failing the
//                    build.
//   event-handler-complete
//                    an EventType enumerator with no matching
//                    `case EventType::X` dispatch in driver.cpp: an
//                    event that can be scheduled but never handled is
//                    a silently dropped simulation step.
//
// The unit-safety rules guard the dagonunits strong-type layer
// (common/quantity.hpp): the compiler rejects dimensionally invalid
// operator mixes, and dagonlint rejects the idioms that would smuggle a
// raw integer past the type system:
//
//   raw-unit-decl    an int64_t / long long declaration of a name with
//                    a unit suffix (*_us, *_usec, *_bytes, *_work)
//                    outside common/ — the value has a dimension, so it
//                    must be a SimTime / Bytes / CpuWork.
//   narrowing-cast   static_cast from a floating expression to an
//                    integer type outside the sanctioned common/
//                    converters (from_seconds, time_from_usec,
//                    scale_time, bytes_from_double, cpus_from_double):
//                    rounding decisions stay centralized and audited.
//   magic-unit-constant
//                    a magic unit literal (1000 / 1000000 / 86400 /
//                    1024-family) multiplying or dividing a time/byte
//                    expression; use kMsec / kSec / kMinute / kMiB so
//                    the scale is named and grep-able.
//   overflow-mul     int64 quantity × quantity multiplication without
//                    widening (__int128 / double) — the exact shape
//                    that can silently wrap in a fair-share style
//                    cross-multiplication. Justify fits-in-int64 cases
//                    with an allow().
//
// The dagonarch family lifts the scan from line-level rules to
// whole-program structure: the scanner extracts the full quoted-include
// graph of the scanned set and checks it against the declared layer
// order in tools/dagonlint/layers.toml (see DESIGN.md §15):
//
//   layering-cycle   a cycle in the include graph — two headers that
//                    cannot be understood (or extracted) independently.
//   upward-include   a file in layer M includes a header from a layer
//                    declared *above* M in the manifest (or from a
//                    module missing from the manifest entirely):
//                    dependencies must point down the stack.
//                    `// dagonlint: allow(layering): <why>` covers both
//                    layering rules on the include line below it.
//   dead-include     IWYU-lite: a quoted include whose header (and its
//                    whole transitive include subtree) contributes no
//                    identifier the including file references.
//
// The concurrency-safety rules guard the ThreadPool fan-out paths
// (outside src/exp — the pool implementation itself — and
// src/common/log, the sanctioned mutex-guarded sink):
//
//   unguarded-global a mutable `static` (local or member) or
//                    namespace-scope global with no std::atomic / mutex
//                    / thread_local evidence in its declaration: shared
//                    mutable state a pooled task could race on.
//   unguarded-capture
//                    a lambda handed to ThreadPool::submit() that
//                    captures by reference something it then mutates,
//                    with no lock/atomic evidence in the body. The
//                    disjoint-slot idiom (each task writes its own
//                    index) is legal but must carry a justified allow.
//
// The doc-drift rule keeps the docs and the binaries in lockstep:
//
//   doc-drift        with --docs-root=DIR: every `--flag` literal and
//                    `name == "<preset>"` comparison parsed by
//                    dagonsim.cpp must appear in DIR/README.md, and
//                    every rule id in this table must appear backticked
//                    in DIR/DESIGN.md.
//
// `--graph-dot` prints the include graph (module-clustered Graphviz
// DOT) instead of linting; the checked-in docs/arch/include_graph.dot
// is diffed against it in CI exactly like docs/fsm/*.dot.
//
// Suppression syntax (audited, grep-able):
//   // dagonlint: allow(<rule-id>): <one-line justification>
// on the offending line, or alone on a comment line directly above it.
// The justification is mandatory — an allow() without one is itself a
// finding (bare-allow), so every exception in the tree stays audited.
//
// The per-file scan fans out across a dagon::ThreadPool (the sweep
// engine's substrate); findings are sorted (path, line, rule) before
// printing, so output is byte-identical to a serial run (--jobs=1).
//
// Usage: dagonlint [--list-rules] [--format=plain|github|sarif]
//                  [--jobs=N] [--layers=FILE] [--docs-root=DIR]
//                  [--graph-dot] <file-or-dir>...
// Exit codes: 0 = clean, 1 = findings, 2 = usage/IO error.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "exp/thread_pool.hpp"

namespace {

// ---------------------------------------------------------------------------
// Rule table.

struct Rule {
  std::string_view id;
  std::string_view summary;
  /// Files whose path contains any of these substrings are exempt.
  std::vector<std::string_view> exempt;
};

// Exemptions, with rationale:
//  * common/sorted_view.hpp IS the sanctioned unordered walk (it erases
//    the order with a sort before anything observes it);
//  * common/rng.* is the seeded RNG implementation itself;
//  * tools/ is off the decision path (CLIs may read argv/env freely);
//  * sim/metrics.* is the sanctioned home of FP reductions — every
//    derived metric is computed there, in one fixed order;
//  * common/ is where the unit strong types, named scale constants and
//    sanctioned converters are *defined*, so the declaration/conversion
//    unit rules do not apply there;
//  * common/quantity.hpp + common/units.hpp implement the checked
//    multiply itself, so overflow-mul does not apply there.
const Rule kRules[] = {
    {"unordered-iter",
     "iteration over an unordered container outside dagon::sorted_view()/"
     "sorted_keys()",
     {"common/sorted_view.hpp"}},
    {"nondet-source",
     "ambient nondeterminism source (rand/random_device/time/system_clock/"
     "getenv) outside the seeded RNG streams",
     {"common/rng.", "tools/"}},
    {"ptr-order",
     "ordering or hashing raw pointer values (allocator-dependent order)",
     {}},
    {"float-accum",
     "uncomment-ed float/double accumulation in a loop (reduction order "
     "hazard); add a justifying comment",
     {"sim/metrics."}},
    {"bare-allow",
     "dagonlint: allow() without a one-line justification",
     {}},
    {"raw-transition",
     "direct assignment to a lifecycle field (status/state/health/"
     "residency); route the write through fsm::transition()",
     {"common/fsm.hpp"}},
    {"enum-switch-default",
     "`default:` arm in a switch over a dagon enum class defeats "
     "-Wswitch-enum exhaustiveness; list every enumerator",
     {}},
    {"event-handler-complete",
     "EventType enumerator with no `case EventType::X` dispatch in "
     "driver.cpp (schedulable but unhandled event)",
     {}},
    {"raw-unit-decl",
     "raw int64_t/long long declaration of a unit-suffixed name "
     "(*_us/*_usec/*_bytes/*_work); declare it SimTime/Bytes/CpuWork",
     {"common/"}},
    {"narrowing-cast",
     "static_cast from a floating expression to an integer type outside "
     "the sanctioned common/ converters (from_seconds, time_from_usec, "
     "...)",
     {"common/"}},
    {"magic-unit-constant",
     "magic unit literal (1000/1000000/86400/1024-family) scaling a "
     "time/byte expression; name the scale with kMsec/kSec/kMinute/kMiB",
     {"common/"}},
    {"overflow-mul",
     "int64 quantity*quantity multiplication without widening; lift one "
     "side to __int128/double or justify with an allow()",
     {"common/quantity.hpp", "common/units.hpp"}},
    // dagonarch: whole-program structure rules.
    //  * core/dagon.hpp is the sanctioned umbrella header — its whole
    //    purpose is to include without referencing;
    //  * exp/ is the ThreadPool/sweep implementation itself and
    //    common/log. is the mutex-guarded logging sink, so the
    //    concurrency rules do not apply there.
    {"layering-cycle",
     "cycle in the include graph; break it (forward-declare or split "
     "the header) so every layer is independently buildable",
     {}},
    {"upward-include",
     "include that points UP the declared layer order in layers.toml "
     "(or into a module the manifest does not declare)",
     {}},
    {"dead-include",
     "included header (incl. its transitive subtree) contributes no "
     "identifier this file references (IWYU-lite); drop the include",
     {"core/dagon.hpp"}},
    {"unguarded-global",
     "mutable static or namespace-scope global without "
     "std::atomic/mutex/thread_local evidence (ThreadPool race hazard)",
     {"exp/", "common/log."}},
    {"unguarded-capture",
     "ThreadPool-submitted lambda mutates a by-reference capture with "
     "no lock/atomic evidence in the body",
     {"exp/", "common/log."}},
    {"doc-drift",
     "dagonsim flag/preset missing from README.md, or a dagonlint rule "
     "id missing from the DESIGN.md rule table (needs --docs-root)",
     {}},
};

/// `allow(layering)` is the documented escape hatch covering BOTH
/// layering rules (cycle + upward) on the include line it annotates.
constexpr std::string_view kLayeringAlias = "layering";

bool known_allow_rule(const std::string& rule);

const Rule* find_rule(std::string_view id) {
  for (const Rule& r : kRules) {
    if (r.id == id) return &r;
  }
  return nullptr;
}

bool known_allow_rule(const std::string& rule) {
  return rule == kLayeringAlias || find_rule(rule) != nullptr;
}

bool rule_exempt(const Rule& rule, const std::string& path) {
  return std::any_of(rule.exempt.begin(), rule.exempt.end(),
                     [&](std::string_view e) {
                       return path.find(e) != std::string::npos;
                     });
}

// ---------------------------------------------------------------------------
// Lexing: split a source file into code tokens (with line numbers) and
// per-line comment text. Strings/chars are blanked; preprocessor lines
// are skipped wholesale.

enum class TokKind { Identifier, Number, Punct };

struct Token {
  TokKind kind;
  std::string text;
  int line;
};

/// A quoted `#include "path"` directive (system includes are external
/// to the architecture and not captured).
struct IncludeDirective {
  std::string text;
  int line;
};

struct FileScan {
  std::string path;
  std::vector<Token> tokens;
  /// 1-based line -> concatenated comment text on that line ("" = none).
  std::vector<std::string> comments;
  std::vector<std::string> raw_lines;
  /// Quoted includes, in file order — the edges of the include graph.
  std::vector<IncludeDirective> includes;
  /// `#define NAME` macro names — provided symbols for IWYU purposes.
  std::vector<std::string> defines;
};

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

FileScan lex_file(const std::string& path, const std::string& text) {
  FileScan scan;
  scan.path = path;

  std::vector<std::string> lines;
  {
    std::string cur;
    for (char c : text) {
      if (c == '\n') {
        lines.push_back(cur);
        cur.clear();
      } else {
        cur += c;
      }
    }
    lines.push_back(cur);
  }
  scan.raw_lines = lines;
  scan.comments.assign(lines.size() + 2, "");

  bool in_block_comment = false;
  for (std::size_t ln = 0; ln < lines.size(); ++ln) {
    const std::string& line = lines[ln];
    const int lineno = static_cast<int>(ln) + 1;
    std::string code;
    std::size_t i = 0;

    // Preprocessor directives carry no decision-path code, but they DO
    // carry architecture: quoted includes become include-graph edges,
    // #define names count as provided symbols (IWYU), and a trailing
    // // comment may hold an allow() directive for the include line.
    if (!in_block_comment) {
      std::size_t first = line.find_first_not_of(" \t");
      if (first != std::string::npos && line[first] == '#') {
        std::size_t p = line.find_first_not_of(" \t", first + 1);
        const auto word_at = [&](std::string_view w) {
          return p != std::string::npos && line.compare(p, w.size(), w) == 0;
        };
        if (word_at("include")) {
          const std::size_t open = line.find('"', p);
          const std::size_t close =
              open == std::string::npos ? std::string::npos
                                        : line.find('"', open + 1);
          if (close != std::string::npos) {
            scan.includes.push_back(
                {line.substr(open + 1, close - open - 1), lineno});
          }
        } else if (word_at("define")) {
          std::size_t n = line.find_first_not_of(" \t", p + 6);
          std::size_t e = n;
          while (e != std::string::npos && e < line.size() &&
                 ident_char(line[e])) {
            ++e;
          }
          if (n != std::string::npos && e > n) {
            scan.defines.push_back(line.substr(n, e - n));
          }
        }
        const std::size_t slashes = line.find("//");
        if (slashes != std::string::npos) {
          scan.comments[static_cast<std::size_t>(lineno)] +=
              line.substr(slashes + 2) + " ";
        }
        continue;
      }
    }

    while (i < line.size()) {
      if (in_block_comment) {
        const std::size_t end = line.find("*/", i);
        if (end == std::string::npos) {
          scan.comments[static_cast<std::size_t>(lineno)] +=
              line.substr(i) + " ";
          i = line.size();
        } else {
          scan.comments[static_cast<std::size_t>(lineno)] +=
              line.substr(i, end - i) + " ";
          i = end + 2;
          in_block_comment = false;
        }
        continue;
      }
      const char c = line[i];
      if (c == '/' && i + 1 < line.size() && line[i + 1] == '/') {
        scan.comments[static_cast<std::size_t>(lineno)] +=
            line.substr(i + 2) + " ";
        i = line.size();
        continue;
      }
      if (c == '/' && i + 1 < line.size() && line[i + 1] == '*') {
        in_block_comment = true;
        i += 2;
        continue;
      }
      if (c == '"' || c == '\'') {
        const char quote = c;
        ++i;
        while (i < line.size()) {
          if (line[i] == '\\') {
            i += 2;
            continue;
          }
          if (line[i] == quote) {
            ++i;
            break;
          }
          ++i;
        }
        code += ' ';
        continue;
      }
      code += c;
      ++i;
    }

    // Tokenize the stripped code.
    std::size_t j = 0;
    while (j < code.size()) {
      const char c = code[j];
      if (std::isspace(static_cast<unsigned char>(c)) != 0) {
        ++j;
        continue;
      }
      if (ident_char(c) &&
          std::isdigit(static_cast<unsigned char>(c)) == 0) {
        std::size_t k = j;
        while (k < code.size() && ident_char(code[k])) ++k;
        scan.tokens.push_back(
            {TokKind::Identifier, code.substr(j, k - j), lineno});
        j = k;
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
        std::size_t k = j;
        while (k < code.size() &&
               (ident_char(code[k]) || code[k] == '.' || code[k] == '\'')) {
          ++k;
        }
        scan.tokens.push_back(
            {TokKind::Number, code.substr(j, k - j), lineno});
        j = k;
        continue;
      }
      // Multi-char operators we care about as single tokens.
      static const char* kOps[] = {"+=", "-=", "*=", "::", "->", "=="};
      bool matched = false;
      for (const char* op : kOps) {
        if (code.compare(j, 2, op) == 0) {
          scan.tokens.push_back({TokKind::Punct, op, lineno});
          j += 2;
          matched = true;
          break;
        }
      }
      if (matched) continue;
      scan.tokens.push_back({TokKind::Punct, std::string(1, c), lineno});
      ++j;
    }
  }
  return scan;
}

// ---------------------------------------------------------------------------
// Suppressions.

struct Allow {
  std::string rule;
  bool justified = false;
  int line = 0;  // comment line the directive sits on
};

/// Parses every `dagonlint: allow(<rule>)[: justification]` directive in
/// the file's comments and computes, per directive, the code line it
/// covers: the line it sits on if that line has code, else the next
/// line that has any code token.
///
/// A directive must be anchored at the start of the comment text (only
/// whitespace before `dagonlint:`). Mid-comment mentions — prose that
/// *documents* the syntax, like this very header — are not directives.
std::vector<Allow> parse_allows(const FileScan& scan) {
  std::vector<Allow> out;
  for (std::size_t ln = 1; ln < scan.comments.size(); ++ln) {
    const std::string& comment = scan.comments[ln];
    std::size_t pos = comment.find("dagonlint:");
    if (pos != std::string::npos &&
        comment.find_first_not_of(" \t") != pos) {
      pos = std::string::npos;
    }
    while (pos != std::string::npos) {
      std::size_t a = comment.find("allow", pos);
      if (a == std::string::npos) break;
      std::size_t open = comment.find('(', a);
      std::size_t close =
          open == std::string::npos ? std::string::npos
                                    : comment.find(')', open);
      if (close == std::string::npos) break;
      Allow allow;
      allow.rule = comment.substr(open + 1, close - open - 1);
      allow.line = static_cast<int>(ln);
      std::size_t after = close + 1;
      while (after < comment.size() &&
             (comment[after] == ' ' || comment[after] == ':')) {
        if (comment[after] == ':') {
          // Anything non-blank after the colon is the justification.
          std::string just = comment.substr(after + 1);
          allow.justified =
              just.find_first_not_of(" \t") != std::string::npos;
          break;
        }
        ++after;
      }
      out.push_back(allow);
      pos = comment.find("dagonlint:", close);
    }
  }
  return out;
}

/// Lines with at least one code token, ascending. Include directives
/// count as code-bearing even though they tokenize to nothing, so an
/// allow() on (or directly above) an include line covers that include.
std::vector<int> code_lines(const FileScan& scan) {
  std::vector<int> lines;
  for (const Token& t : scan.tokens) {
    if (lines.empty() || lines.back() != t.line) lines.push_back(t.line);
  }
  for (const IncludeDirective& inc : scan.includes) {
    lines.push_back(inc.line);
  }
  std::sort(lines.begin(), lines.end());
  lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
  return lines;
}

/// The set of code lines each allow directive covers. A directive on a
/// code-bearing line covers that line; a directive on a comment-only
/// line covers the next code-bearing line (skipping further comments).
std::set<std::pair<std::string, int>> allow_coverage(
    const FileScan& scan, const std::vector<Allow>& allows) {
  const std::vector<int> codes = code_lines(scan);
  std::set<std::pair<std::string, int>> covered;
  for (const Allow& a : allows) {
    const auto it =
        std::lower_bound(codes.begin(), codes.end(), a.line);
    int target = a.line;
    if (it == codes.end() || *it != a.line) {
      const auto next = std::lower_bound(codes.begin(), codes.end(), a.line);
      if (next != codes.end()) target = *next;
    }
    covered.insert({a.rule, target});
  }
  return covered;
}

// ---------------------------------------------------------------------------
// Findings.

struct Finding {
  std::string path;
  int line;
  std::string rule;
  std::string message;
};

/// An enumerator of `enum class EventType`, with its declaration site
/// (where an event-handler-complete finding is reported).
struct EventEnumerator {
  std::string name;
  std::string path;
  int line = 0;
};

struct Context {
  /// Identifiers declared (anywhere in the scanned set) as unordered
  /// containers, or accessors returning references to them.
  std::set<std::string> unordered_names;
  /// `enum class` type names declared anywhere in the scanned set.
  std::set<std::string> enum_class_names;
  /// Enumerators of `enum class EventType` (the simulator event set).
  std::vector<EventEnumerator> event_enumerators;
  /// True when the scanned set contains a file named driver.cpp — the
  /// event dispatch loop lives there, so event-handler-complete is only
  /// meaningful when it is in scope.
  bool saw_driver_cpp = false;
  /// Per-file allow() coverage, kept for the cross-file event check.
  std::map<std::string, std::set<std::pair<std::string, int>>> allowed_by_path;
  std::vector<Finding> findings;
};

/// Appends a finding to `out` unless the rule is path-exempt or covered
/// by an allow(). Checks write into a per-file vector so the scan pass
/// can fan out across threads without mutating shared Context state.
void report(std::vector<Finding>& out, const FileScan& scan,
            const std::set<std::pair<std::string, int>>& allowed,
            int line, std::string_view rule, std::string message) {
  const Rule* r = find_rule(rule);
  if (r != nullptr && rule_exempt(*r, scan.path)) return;
  if (allowed.count({std::string(rule), line}) != 0) return;
  out.push_back({scan.path, line, std::string(rule), std::move(message)});
}

// ---------------------------------------------------------------------------
// Pass A: collect unordered container / accessor names.

void collect_unordered_names(const FileScan& scan, Context& ctx) {
  const auto& toks = scan.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::Identifier ||
        (toks[i].text != "unordered_map" &&
         toks[i].text != "unordered_set")) {
      continue;
    }
    std::size_t j = i + 1;
    if (j >= toks.size() || toks[j].text != "<") continue;
    // Skip the balanced template argument list.
    int depth = 0;
    while (j < toks.size()) {
      if (toks[j].text == "<") ++depth;
      if (toks[j].text == ">") {
        --depth;
        if (depth == 0) break;
      }
      ++j;
    }
    if (j >= toks.size()) continue;
    ++j;
    // Member-type uses (::const_iterator etc.) are not declarations.
    if (j < toks.size() && toks[j].text == "::") continue;
    while (j < toks.size() &&
           (toks[j].text == "&" || toks[j].text == "*" ||
            toks[j].text == "const")) {
      ++j;
    }
    if (j >= toks.size() || toks[j].kind != TokKind::Identifier) continue;
    const std::string& name = toks[j].text;
    if (j + 1 < toks.size()) {
      const std::string& next = toks[j + 1].text;
      // Variable/member declaration, or accessor function returning a
      // reference to the container — both make `name` an unordered
      // iteration source wherever it appears.
      if (next == ";" || next == "=" || next == "{" || next == "(" ||
          next == ",") {
        ctx.unordered_names.insert(name);
      }
    }
  }
}

std::size_t matching_close(const std::vector<Token>& toks, std::size_t open,
                           const char* open_t, const char* close_t);

/// Collects `enum class` type names, and — for `enum class EventType` —
/// its enumerators with their declaration sites.
void collect_enum_info(const FileScan& scan, Context& ctx) {
  const auto& toks = scan.tokens;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::Identifier || toks[i].text != "enum") {
      continue;
    }
    std::size_t j = i + 1;
    if (toks[j].text == "class" || toks[j].text == "struct") ++j;
    if (j >= toks.size() || toks[j].kind != TokKind::Identifier) continue;
    const std::string& name = toks[j].text;
    ++j;
    // Skip an underlying-type clause (`: std::uint8_t`).
    if (j < toks.size() && toks[j].text == ":") {
      while (j < toks.size() && toks[j].text != "{" && toks[j].text != ";") {
        ++j;
      }
    }
    // Forward declarations introduce no enumerators and the name is
    // collected at the definition anyway.
    if (j >= toks.size() || toks[j].text != "{") continue;
    ctx.enum_class_names.insert(name);
    if (name != "EventType") continue;
    const std::size_t end = matching_close(toks, j, "{", "}");
    // An enumerator is the identifier right after `{` or `,`; anything
    // after an `=` (explicit values) is an initializer, not a name.
    for (std::size_t k = j + 1; k < end; ++k) {
      if (toks[k].kind == TokKind::Identifier &&
          (toks[k - 1].text == "{" || toks[k - 1].text == ",")) {
        ctx.event_enumerators.push_back(
            {toks[k].text, scan.path, toks[k].line});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Pass B helpers.

std::size_t matching_close(const std::vector<Token>& toks, std::size_t open,
                           const char* open_t, const char* close_t) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (toks[i].text == open_t) ++depth;
    if (toks[i].text == close_t) {
      --depth;
      if (depth == 0) return i;
    }
  }
  return toks.size();
}

struct LoopRegion {
  std::size_t begin;
  std::size_t end;  // inclusive token range of the loop body
  int header_line;
};

/// Body token ranges of every for/while loop (including range-fors).
std::vector<LoopRegion> loop_regions(const std::vector<Token>& toks) {
  std::vector<LoopRegion> regions;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::Identifier ||
        (toks[i].text != "for" && toks[i].text != "while")) {
      continue;
    }
    if (i + 1 >= toks.size() || toks[i + 1].text != "(") continue;
    const std::size_t close = matching_close(toks, i + 1, "(", ")");
    if (close >= toks.size()) continue;
    std::size_t body = close + 1;
    if (body < toks.size() && toks[body].text == "{") {
      const std::size_t end = matching_close(toks, body, "{", "}");
      regions.push_back({body, end, toks[i].line});
    } else {
      std::size_t end = body;
      while (end < toks.size() && toks[end].text != ";") ++end;
      regions.push_back({body, end, toks[i].line});
    }
  }
  return regions;
}

bool in_any_region(const std::vector<LoopRegion>& regions, std::size_t idx) {
  return std::any_of(regions.begin(), regions.end(),
                     [idx](const LoopRegion& r) {
                       return idx >= r.begin && idx <= r.end;
                     });
}

/// float/double variable + function names declared in `toks`.
std::set<std::string> float_names(const std::vector<Token>& toks) {
  std::set<std::string> names;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::Identifier ||
        (toks[i].text != "float" && toks[i].text != "double")) {
      continue;
    }
    // `static_cast<double>(x)`, `vector<double>` — a type use, not a
    // declaration.
    if (i > 0 && (toks[i - 1].text == "<" || toks[i - 1].text == ",")) {
      continue;
    }
    std::size_t j = i + 1;
    while (j < toks.size() && (toks[j].text == "&" || toks[j].text == "*")) {
      ++j;
    }
    if (j < toks.size() && toks[j].kind == TokKind::Identifier) {
      names.insert(toks[j].text);
    }
  }
  return names;
}

/// True when `name` carries a unit suffix: *_us, *_usec, *_bytes,
/// *_work, including the `_`-suffixed member forms (elapsed_us_).
bool unit_suffixed(const std::string& name) {
  static const std::string_view kSuffixes[] = {"_us", "_usec", "_bytes",
                                               "_work"};
  std::string_view n = name;
  if (!n.empty() && n.back() == '_') n.remove_suffix(1);
  for (std::string_view suffix : kSuffixes) {
    if (n.size() > suffix.size() &&
        n.substr(n.size() - suffix.size()) == suffix) {
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Pass B: rule checks. Each writes findings into `out` (per-file, so
// the pass can run one file per thread; see run()).

void check_unordered_iter(const FileScan& scan, const Context& ctx,
                          const std::set<std::pair<std::string, int>>& ok,
                          std::vector<Finding>& out) {
  const auto& toks = scan.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    // Range-for: for ( decl : range )
    if (toks[i].kind == TokKind::Identifier && toks[i].text == "for" &&
        toks[i + 1].text == "(") {
      const std::size_t close = matching_close(toks, i + 1, "(", ")");
      // Find the range `:` at parenthesis depth 1.
      int depth = 0;
      std::size_t colon = 0;
      for (std::size_t j = i + 1; j < close; ++j) {
        if (toks[j].text == "(" || toks[j].text == "[") ++depth;
        if (toks[j].text == ")" || toks[j].text == "]") --depth;
        if (toks[j].text == ":" && depth == 1) {
          colon = j;
          break;
        }
      }
      if (colon == 0) continue;
      bool sanctioned = false;
      std::string culprit;
      for (std::size_t j = colon + 1; j < close; ++j) {
        if (toks[j].kind != TokKind::Identifier) continue;
        if (toks[j].text == "sorted_view" || toks[j].text == "sorted_keys") {
          sanctioned = true;
          break;
        }
        // `map_[key]` / `map_.at(key)` range over an *element* of the
        // container, not the container itself — no hash-order exposure.
        const bool element_access =
            j + 1 < close &&
            (toks[j + 1].text == "[" ||
             (toks[j + 1].text == "." && j + 2 < close &&
              toks[j + 2].text == "at"));
        if (culprit.empty() && !element_access &&
            ctx.unordered_names.count(toks[j].text) != 0) {
          culprit = toks[j].text;
        }
      }
      if (!sanctioned && !culprit.empty()) {
        report(out, scan, ok, toks[i].line, "unordered-iter",
               "range-for over unordered container '" + culprit +
                   "'; iterate dagon::sorted_view()/sorted_keys() instead");
      }
      continue;
    }
    // Iterator walk: <unordered>.begin() / .cbegin() / .rbegin()
    if (toks[i].kind == TokKind::Identifier &&
        ctx.unordered_names.count(toks[i].text) != 0 &&
        toks[i + 1].text == "." && i + 2 < toks.size() &&
        (toks[i + 2].text == "begin" || toks[i + 2].text == "cbegin" ||
         toks[i + 2].text == "rbegin") &&
        i + 3 < toks.size() && toks[i + 3].text == "(") {
      report(out, scan, ok, toks[i].line, "unordered-iter",
             "iterator walk over unordered container '" + toks[i].text +
                 "'; iterate dagon::sorted_view()/sorted_keys() instead");
    }
  }
}

void check_nondet_source(const FileScan& scan, const Context&,
                         const std::set<std::pair<std::string, int>>& ok,
                         std::vector<Finding>& out) {
  const auto& toks = scan.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::Identifier) continue;
    const std::string& t = toks[i].text;
    const bool member = i > 0 && (toks[i - 1].text == "." ||
                                  toks[i - 1].text == "->");
    if (t == "random_device" || t == "system_clock") {
      report(out, scan, ok, toks[i].line, "nondet-source",
             "'" + t + "' is an ambient nondeterminism source; draw from "
                 "the run's seeded dagon::Rng stream instead");
      continue;
    }
    if (member) continue;  // e.time, obj->rand — not the libc symbols
    const bool call = i + 1 < toks.size() && toks[i + 1].text == "(";
    if (!call) continue;
    if (t == "rand" || t == "srand" || t == "time" || t == "getenv" ||
        t == "clock") {
      report(out, scan, ok, toks[i].line, "nondet-source",
             "call to '" + t + "()' outside the seeded RNG streams; wire "
                 "the value through SimConfig or dagon::Rng");
    }
  }
}

void check_ptr_order(const FileScan& scan, const Context&,
                     const std::set<std::pair<std::string, int>>& ok,
                     std::vector<Finding>& out) {
  const auto& toks = scan.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::Identifier) continue;
    const std::string& t = toks[i].text;
    if ((t == "hash" || t == "less" || t == "greater") &&
        toks[i + 1].text == "<") {
      const std::size_t close = matching_close(toks, i + 1, "<", ">");
      for (std::size_t j = i + 2; j < close && j < toks.size(); ++j) {
        if (toks[j].text == "*") {
          report(out, scan, ok, toks[i].line, "ptr-order",
                 "std::" + t + " over a raw pointer type orders/hashes "
                     "allocator-dependent addresses; key on a stable id");
          break;
        }
      }
    }
    if (t == "reinterpret_cast" && toks[i + 1].text == "<") {
      const std::size_t close = matching_close(toks, i + 1, "<", ">");
      for (std::size_t j = i + 2; j < close && j < toks.size(); ++j) {
        if (toks[j].text == "uintptr_t" || toks[j].text == "intptr_t") {
          report(out, scan, ok, toks[i].line, "ptr-order",
                 "pointer-to-integer cast used as an ordering/hash key is "
                     "allocator-dependent; key on a stable id");
          break;
        }
      }
    }
  }
}

void check_float_accum(const FileScan& scan, const Context&,
                       const std::set<std::pair<std::string, int>>& ok,
                       std::vector<Finding>& out) {
  const auto& toks = scan.tokens;
  const std::vector<LoopRegion> loops = loop_regions(toks);
  const std::set<std::string> floats = float_names(toks);
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::Identifier ||
        floats.count(toks[i].text) == 0) {
      continue;
    }
    const std::string& op = toks[i + 1].text;
    if (op != "+=" && op != "-=") continue;
    if (!in_any_region(loops, i)) continue;
    // "Uncommented" is the offense: a justifying comment on the line,
    // the line above, or directly above an enclosing loop's header (the
    // document-the-reduction-before-the-loop idiom) satisfies the rule.
    const auto has_comment = [&](int l) {
      return l >= 1 && static_cast<std::size_t>(l) < scan.comments.size() &&
             !scan.comments[static_cast<std::size_t>(l)].empty();
    };
    bool commented =
        has_comment(toks[i].line) || has_comment(toks[i].line - 1);
    for (const LoopRegion& r : loops) {
      if (commented) break;
      if (i >= r.begin && i <= r.end) {
        commented = has_comment(r.header_line) ||
                    has_comment(r.header_line - 1);
      }
    }
    if (commented) continue;
    report(out, scan, ok, toks[i].line, "float-accum",
           "floating-point accumulation into '" + toks[i].text +
               "' in a loop; comment the reduction-order contract or move "
               "it to sim/metrics");
  }
}

/// True when `name` denotes a lifecycle field: status / state / health /
/// residency, a `_`-suffixed member form of one (status_, health_), or
/// a compound ending in one (task_status, task_status_).
bool lifecycle_field_name(const std::string& name) {
  static const std::string_view kBases[] = {"status", "state", "health",
                                            "residency"};
  std::string_view n = name;
  if (!n.empty() && n.back() == '_') n.remove_suffix(1);
  for (std::string_view base : kBases) {
    if (n == base) return true;
    if (n.size() > base.size() + 1 &&
        n[n.size() - base.size() - 1] == '_' &&
        n.substr(n.size() - base.size()) == base) {
      return true;
    }
  }
  return false;
}

void check_raw_transition(const FileScan& scan, const Context&,
                          const std::set<std::pair<std::string, int>>& ok,
                          std::vector<Finding>& out) {
  const auto& toks = scan.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::Identifier ||
        !lifecycle_field_name(toks[i].text)) {
      continue;
    }
    // Declarations set the *initial* state, which is not a transition:
    // `TaskStatus status = ...` (prev is the type name or a closing
    // template `>`), `auto& state = ...` (prev is `&`/`*`), and
    // designated initializers `{.status = ...}` / `, .status = ...`.
    if (i > 0) {
      const Token& prev = toks[i - 1];
      if (prev.kind == TokKind::Identifier || prev.text == ">" ||
          prev.text == "&" || prev.text == "*") {
        continue;
      }
      if (prev.text == "." && i > 1 &&
          (toks[i - 2].text == "{" || toks[i - 2].text == ",")) {
        continue;
      }
    }
    // The write target may be an element: `task_status[i] = ...`.
    std::size_t j = i + 1;
    if (toks[j].text == "[") {
      j = matching_close(toks, j, "[", "]");
      if (j >= toks.size()) continue;
      ++j;
    }
    if (j >= toks.size() || toks[j].text != "=") continue;
    report(out, scan, ok, toks[i].line, "raw-transition",
           "direct write to lifecycle field '" + toks[i].text +
               "'; route the transition through fsm::transition()");
  }
}

void check_enum_switch_default(const FileScan& scan, const Context& ctx,
                               const std::set<std::pair<std::string, int>>&
                                   ok,
                               std::vector<Finding>& out) {
  const auto& toks = scan.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::Identifier || toks[i].text != "switch" ||
        toks[i + 1].text != "(") {
      continue;
    }
    const std::size_t close = matching_close(toks, i + 1, "(", ")");
    if (close + 1 >= toks.size() || toks[close + 1].text != "{") continue;
    const std::size_t body = close + 1;
    const std::size_t end = matching_close(toks, body, "{", "}");
    // Walk the top level of the switch body: case labels of a nested
    // switch sit at a deeper brace depth and belong to that switch.
    int depth = 0;
    std::string enum_name;
    int default_line = 0;
    for (std::size_t j = body; j < end; ++j) {
      if (toks[j].text == "{") ++depth;
      if (toks[j].text == "}") --depth;
      if (depth != 1 || toks[j].kind != TokKind::Identifier) continue;
      if (toks[j].text == "case") {
        // Scan the label up to its terminating `:` for a known dagon
        // enum class name (qualified enumerators: `case Kind::A:`,
        // `case ns::Kind::A:`).
        for (std::size_t k = j + 1; k < end && toks[k].text != ":"; ++k) {
          if (toks[k].kind == TokKind::Identifier &&
              ctx.enum_class_names.count(toks[k].text) != 0 &&
              k + 1 < end && toks[k + 1].text == "::") {
            enum_name = toks[k].text;
          }
        }
      } else if (toks[j].text == "default" && j + 1 < end &&
                 toks[j + 1].text == ":") {
        default_line = toks[j].line;
      }
    }
    if (!enum_name.empty() && default_line != 0) {
      report(out, scan, ok, default_line, "enum-switch-default",
             "`default:` in a switch over enum class '" + enum_name +
                 "' defeats -Wswitch-enum; list every enumerator instead");
    }
  }
}

// ---------------------------------------------------------------------------
// Pass B: unit-safety rule checks (the dagonunits companion rules).

void check_raw_unit_decl(const FileScan& scan, const Context&,
                         const std::set<std::pair<std::string, int>>& ok,
                         std::vector<Finding>& out) {
  const auto& toks = scan.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::Identifier) continue;
    std::size_t j;
    if (toks[i].text == "int64_t") {
      j = i + 1;  // also the int64_t of a qualified std::int64_t
    } else if (toks[i].text == "long" && toks[i + 1].text == "long") {
      j = i + 2;
    } else {
      continue;
    }
    while (j < toks.size() &&
           (toks[j].text == "&" || toks[j].text == "*" ||
            toks[j].text == "const")) {
      ++j;
    }
    if (j >= toks.size() || toks[j].kind != TokKind::Identifier) continue;
    if (!unit_suffixed(toks[j].text)) continue;
    report(out, scan, ok, toks[j].line, "raw-unit-decl",
           "raw integer declaration of unit-suffixed '" + toks[j].text +
               "'; declare it as the strong type (SimTime/Bytes/CpuWork) "
               "from common/quantity.hpp");
  }
}

/// A literal with floating syntax: `1.5`, `1e6`, `2.f` (hex literals
/// like 0x1e are integers and excluded).
bool float_literal(const std::string& text) {
  if (text.size() > 1 && text[0] == '0' &&
      (text[1] == 'x' || text[1] == 'X')) {
    return false;
  }
  return text.find('.') != std::string::npos ||
         text.find('e') != std::string::npos ||
         text.find('E') != std::string::npos;
}

void check_narrowing_cast(const FileScan& scan, const Context& ctx,
                          const std::set<std::pair<std::string, int>>& ok,
                          std::vector<Finding>& out) {
  static const std::set<std::string> kIntTargets = {
      "int",      "long",     "short",    "char",     "unsigned",
      "int8_t",   "int16_t",  "int32_t",  "int64_t",  "uint8_t",
      "uint16_t", "uint32_t", "uint64_t", "size_t",   "ptrdiff_t"};
  (void)ctx;
  // Float-declared names are collected per file: evidence must be local
  // (a `double` declared in an unrelated file must not poison casts of
  // identically named integer variables elsewhere).
  const std::set<std::string> floats = float_names(scan.tokens);
  const auto& toks = scan.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::Identifier ||
        toks[i].text != "static_cast" || toks[i + 1].text != "<") {
      continue;
    }
    const std::size_t close = matching_close(toks, i + 1, "<", ">");
    if (close >= toks.size()) continue;
    bool to_int = false;
    bool to_float = false;
    for (std::size_t j = i + 2; j < close; ++j) {
      if (toks[j].kind != TokKind::Identifier) continue;
      if (kIntTargets.count(toks[j].text) != 0) to_int = true;
      if (toks[j].text == "float" || toks[j].text == "double") {
        to_float = true;
      }
    }
    if (!to_int || to_float) continue;
    if (close + 1 >= toks.size() || toks[close + 1].text != "(") continue;
    const std::size_t pclose = matching_close(toks, close + 1, "(", ")");
    // The argument is floating when it mentions a float literal, a
    // float/double-declared name from this file, or a nested widening
    // cast to double.
    for (std::size_t j = close + 2; j < pclose && j < toks.size(); ++j) {
      const bool floating =
          (toks[j].kind == TokKind::Number && float_literal(toks[j].text)) ||
          (toks[j].kind == TokKind::Identifier &&
           (toks[j].text == "double" || toks[j].text == "float" ||
            floats.count(toks[j].text) != 0));
      if (floating) {
        report(out, scan, ok, toks[i].line, "narrowing-cast",
               "static_cast of a floating expression to an integer type; "
               "use a sanctioned converter (from_seconds, time_from_usec, "
               "scale_time, bytes_from_double, cpus_from_double)");
        break;
      }
    }
  }
}

/// Magic scale factors the named constants replace: decimal time scales
/// (msec/sec/minute/hour/day in usec) and binary byte scales.
bool magic_unit_value(const std::string& text) {
  static const std::set<std::string> kMagic = {
      "1000",       "1000000",    "60000000", "3600000000",
      "1000000000", "86400",      "86400000000",
      "1024",       "1048576",    "1073741824"};
  std::string digits;
  for (char c : text) {
    if (c == '\'') continue;  // 1'000'000 digit separators
    digits += c;
  }
  if (digits.size() > 1 && digits[0] == '0' &&
      (digits[1] == 'x' || digits[1] == 'X')) {
    return false;
  }
  // Strip integer suffixes (LL, u, ...); any remaining non-digit (a
  // float literal's '.' or exponent) disqualifies.
  while (!digits.empty() &&
         (digits.back() == 'l' || digits.back() == 'L' ||
          digits.back() == 'u' || digits.back() == 'U')) {
    digits.pop_back();
  }
  if (digits.empty() ||
      !std::all_of(digits.begin(), digits.end(), [](char c) {
        return std::isdigit(static_cast<unsigned char>(c)) != 0;
      })) {
    return false;
  }
  return kMagic.count(digits) != 0;
}

/// True when the raw line mentions a unit-typed quantity: a strong type
/// name, a named scale constant, or a unit-suffixed identifier.
bool unit_context_line(const std::string& line) {
  static const std::string_view kMarkers[] = {
      "SimTime", "Bytes",  "CpuWork", "kUsec", "kMsec",  "kSec",
      "kMinute", "kKiB",   "kMiB",    "kGiB",  "_us",    "_usec",
      "_bytes",  "_work"};
  return std::any_of(std::begin(kMarkers), std::end(kMarkers),
                     [&](std::string_view m) {
                       return line.find(m) != std::string::npos;
                     });
}

void check_magic_unit_constant(const FileScan& scan, const Context&,
                               const std::set<std::pair<std::string, int>>&
                                   ok,
                               std::vector<Finding>& out) {
  const auto& toks = scan.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::Number || !magic_unit_value(toks[i].text)) {
      continue;
    }
    // Only as a scale factor: the literal multiplies or divides
    // something. Bare element counts (reserve(1024)) stay legal.
    const bool scaled =
        (i > 0 && (toks[i - 1].text == "*" || toks[i - 1].text == "/")) ||
        (i + 1 < toks.size() &&
         (toks[i + 1].text == "*" || toks[i + 1].text == "/"));
    if (!scaled) continue;
    const std::size_t ln = static_cast<std::size_t>(toks[i].line);
    if (ln == 0 || ln > scan.raw_lines.size()) continue;
    if (!unit_context_line(scan.raw_lines[ln - 1])) continue;
    report(out, scan, ok, toks[i].line, "magic-unit-constant",
           "magic unit literal " + toks[i].text +
               " scaling a unit expression; use the named constant "
               "(kMsec/kSec/kMinute/kMiB/...) instead");
  }
}

/// True when the operand ending at the `*` token denotes an int64
/// quantity: a unit-suffixed identifier (bare or tail of a member
/// chain) or a `.count()` escape from a strong type.
bool quantity_operand_left(const std::vector<Token>& toks, std::size_t star) {
  if (star == 0) return false;
  const Token& prev = toks[star - 1];
  if (prev.kind == TokKind::Identifier && unit_suffixed(prev.text)) {
    return true;
  }
  // `x.count() *` — tokens: x . count ( ) *
  return star >= 4 && prev.text == ")" && toks[star - 2].text == "(" &&
         toks[star - 3].text == "count" &&
         (toks[star - 4].text == "." || toks[star - 4].text == "->");
}

/// Same, for the operand starting right after the `*` token.
bool quantity_operand_right(const std::vector<Token>& toks,
                            std::size_t star) {
  std::size_t j = star + 1;
  if (j >= toks.size() || toks[j].kind != TokKind::Identifier) return false;
  // Walk a member chain (state.fair_us, cfg->budget.count()).
  std::size_t last = j;
  while (j + 2 < toks.size() &&
         (toks[j + 1].text == "." || toks[j + 1].text == "->") &&
         toks[j + 2].kind == TokKind::Identifier) {
    j += 2;
    last = j;
  }
  if (toks[last].text == "count" && last + 1 < toks.size() &&
      toks[last + 1].text == "(") {
    return true;
  }
  return unit_suffixed(toks[last].text);
}

void check_overflow_mul(const FileScan& scan, const Context&,
                        const std::set<std::pair<std::string, int>>& ok,
                        std::vector<Finding>& out) {
  const auto& toks = scan.tokens;
  for (std::size_t i = 1; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::Punct || toks[i].text != "*") continue;
    if (!quantity_operand_left(toks, i) ||
        !quantity_operand_right(toks, i)) {
      continue;
    }
    // A widened multiply is safe: one side lifted to __int128 or double
    // before the product forms.
    const std::size_t ln = static_cast<std::size_t>(toks[i].line);
    if (ln >= 1 && ln <= scan.raw_lines.size()) {
      const std::string& raw = scan.raw_lines[ln - 1];
      if (raw.find("__int128") != std::string::npos ||
          raw.find("static_cast<double>") != std::string::npos ||
          raw.find("static_cast<long double>") != std::string::npos) {
        continue;
      }
    }
    report(out, scan, ok, toks[i].line, "overflow-mul",
           "int64 quantity*quantity multiplication can overflow; widen "
           "one side (__int128/double) or justify with "
           "`// dagonlint: allow(overflow-mul): <why>`");
  }
}

// ---------------------------------------------------------------------------
// Pass B: concurrency-safety rule checks (the ThreadPool companions).

/// Guard evidence in a declaration: the token chain names a
/// synchronization primitive or strips mutability entirely.
bool sync_guard_token(const Token& t) {
  return t.text == "const" || t.text == "constexpr" ||
         t.text == "constinit" || t.text == "thread_local" ||
         t.text == "once_flag" || t.text == "condition_variable" ||
         t.text.find("atomic") != std::string::npos ||
         t.text.find("mutex") != std::string::npos;
}

/// Identifier-position keywords that must not be mistaken for a
/// declaring type or a declared name.
bool decl_keyword(const std::string& t) {
  static const std::set<std::string> kKeywords = {
      "return",   "if",     "for",      "while",  "switch", "case",
      "new",      "delete", "throw",    "else",   "do",     "catch",
      "goto",     "sizeof", "co_await", "co_return", "co_yield"};
  return kKeywords.count(t) != 0;
}

void check_unguarded_global(const FileScan& scan, const Context&,
                            const std::set<std::pair<std::string, int>>& ok,
                            std::vector<Finding>& out) {
  const auto& toks = scan.tokens;

  // (i) `static` storage anywhere (function-local statics, static data
  // members): scan the declaration up to its first structural token.
  // `(` first means a static member *function* — no shared state.
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::Identifier || toks[i].text != "static") {
      continue;
    }
    bool guarded = false;
    std::size_t j = i + 1;
    for (; j < toks.size(); ++j) {
      const std::string& t = toks[j].text;
      if (t == "(" || t == ";" || t == "=" || t == "{") break;
      if (sync_guard_token(toks[j])) guarded = true;
    }
    if (guarded || j >= toks.size() || toks[j].text == "(") continue;
    // The declared name: the last identifier before the terminator.
    std::size_t name = toks.size();
    for (std::size_t k = j; k-- > i + 1;) {
      if (toks[k].kind == TokKind::Identifier && !decl_keyword(toks[k].text)) {
        name = k;
        break;
      }
    }
    if (name == toks.size()) continue;
    report(out, scan, ok, toks[name].line, "unguarded-global",
           "mutable static '" + toks[name].text +
               "' without atomic/mutex/thread_local evidence; a pooled "
               "task could race on it");
  }

  // (ii) namespace-scope globals: walk the top level of the file.
  // namespace / extern-"C" braces are transparent (their contents stay
  // top-level); every other brace body is opaque and skipped whole.
  const auto analyze_stmt = [&](std::size_t begin, std::size_t end) {
    if (begin >= end) return;
    // Type/alias/template introductions and re-declarations carry no
    // mutable storage of their own; `static` is handled by pass (i).
    static const std::set<std::string> kSkipLead = {
        "class",    "struct", "enum",   "union",     "using", "typedef",
        "template", "friend", "extern", "namespace", "static"};
    if (toks[begin].kind != TokKind::Identifier ||
        kSkipLead.count(toks[begin].text) != 0) {
      return;
    }
    std::size_t idents = 0;
    std::size_t eq = end;
    for (std::size_t k = begin; k < end; ++k) {
      if (toks[k].text == "(") return;  // function decl / paren init
      if (sync_guard_token(toks[k])) return;
      if (toks[k].kind == TokKind::Identifier &&
          !decl_keyword(toks[k].text)) {
        ++idents;
      }
      if (eq == end && toks[k].text == "=") eq = k;
    }
    if (idents < 2) return;  // a declaration needs a type and a name
    std::size_t name = end;
    for (std::size_t k = eq; k-- > begin;) {
      if (toks[k].kind == TokKind::Identifier &&
          !decl_keyword(toks[k].text)) {
        name = k;
        break;
      }
    }
    if (name == end) return;
    report(out, scan, ok, toks[name].line, "unguarded-global",
           "mutable namespace-scope global '" + toks[name].text +
               "' without atomic/mutex evidence; a pooled task could race "
               "on it");
  };

  std::size_t i = 0;
  while (i < toks.size()) {
    const std::string& t = toks[i].text;
    if (t == "}" || t == ";") {  // closes a transparent scope / empty stmt
      ++i;
      continue;
    }
    if (t == "namespace") {
      while (i < toks.size() && toks[i].text != "{" && toks[i].text != ";") {
        ++i;
      }
      ++i;  // past the `{` (scope) or `;` (namespace alias)
      continue;
    }
    if (t == "extern" && i + 1 < toks.size() && toks[i + 1].text == "{") {
      i += 2;  // extern "C" linkage block
      continue;
    }
    // One top-level statement. A `{` before the `;` is either a brace
    // initializer / class body (a `;` follows its close — analyze the
    // declarator before the brace) or a function body (skip it whole).
    std::size_t j = i;
    bool has_paren = false;
    bool done = false;
    while (j < toks.size()) {
      const std::string& u = toks[j].text;
      if (u == ";") {
        analyze_stmt(i, j);
        i = j + 1;
        done = true;
        break;
      }
      if (u == "{") {
        const std::size_t close = matching_close(toks, j, "{", "}");
        if (!has_paren && close + 1 < toks.size() &&
            toks[close + 1].text == ";") {
          analyze_stmt(i, j);
          i = close + 2;
        } else {
          i = close + 1;
        }
        done = true;
        break;
      }
      if (u == "(") has_paren = true;
      ++j;
    }
    if (!done) break;  // trailing tokens with no terminator
  }
}

void check_unguarded_capture(const FileScan& scan, const Context&,
                             const std::set<std::pair<std::string, int>>& ok,
                             std::vector<Finding>& out) {
  const auto& toks = scan.tokens;
  for (std::size_t i = 1; i + 2 < toks.size(); ++i) {
    // pool.submit([caps](params) { body }) / pool->submit(...).
    if (toks[i].kind != TokKind::Identifier || toks[i].text != "submit" ||
        (toks[i - 1].text != "." && toks[i - 1].text != "->") ||
        toks[i + 1].text != "(" || toks[i + 2].text != "[") {
      continue;
    }
    const std::size_t caps = i + 2;
    const std::size_t caps_end = matching_close(toks, caps, "[", "]");
    if (caps_end >= toks.size()) continue;
    bool all_by_ref = false;
    std::set<std::string> ref_caps;
    for (std::size_t j = caps + 1; j < caps_end; ++j) {
      if (toks[j].text != "&") continue;
      if (j + 1 < caps_end && toks[j + 1].kind == TokKind::Identifier) {
        ref_caps.insert(toks[j + 1].text);
        ++j;
      } else {
        all_by_ref = true;  // bare [&]
      }
    }
    if (!all_by_ref && ref_caps.empty()) continue;
    std::size_t body = caps_end + 1;
    if (body < toks.size() && toks[body].text == "(") {
      body = matching_close(toks, body, "(", ")") + 1;
    }
    while (body < toks.size() && toks[body].text != "{") ++body;
    if (body >= toks.size()) continue;
    const std::size_t body_end = matching_close(toks, body, "{", "}");

    // Lock/atomic evidence anywhere in the body vouches for the whole
    // lambda: the fine-grained pairing is the reviewer's job.
    bool guarded = false;
    for (std::size_t j = body; j <= body_end && j < toks.size(); ++j) {
      const std::string& u = toks[j].text;
      if (u.find("lock") != std::string::npos ||
          u.find("atomic") != std::string::npos ||
          u.find("mutex") != std::string::npos) {
        guarded = true;
        break;
      }
    }
    if (guarded) continue;

    // Names the body declares itself (locals shadow captures, and a
    // bare [&] only captures what the body does NOT declare).
    std::set<std::string> declared;
    const auto decl_context = [&](std::size_t j) {
      if (j == 0) return false;
      const Token& prev = toks[j - 1];
      return (prev.kind == TokKind::Identifier &&
              !decl_keyword(prev.text)) ||
             prev.text == ">" || prev.text == "&" || prev.text == "*";
    };
    for (std::size_t j = body + 1; j < body_end; ++j) {
      if (toks[j].kind == TokKind::Identifier && decl_context(j)) {
        declared.insert(toks[j].text);
      }
    }

    // Mutations of a candidate capture inside the body.
    std::set<std::string> flagged;
    for (std::size_t j = body + 1; j < body_end; ++j) {
      if (toks[j].kind != TokKind::Identifier) continue;
      const std::string& name = toks[j].text;
      if (decl_keyword(name)) continue;
      const bool candidate =
          ref_caps.count(name) != 0 ||
          (all_by_ref && declared.count(name) == 0);
      if (!candidate || decl_context(j)) continue;
      std::size_t after = j + 1;
      if (after < body_end && toks[after].text == "[") {
        after = matching_close(toks, after, "[", "]") + 1;
      }
      bool mutated = false;
      if (after < body_end) {
        const std::string& op = toks[after].text;
        mutated = op == "=" || op == "+=" || op == "-=" || op == "*=";
        // x++ / ++x (both halves tokenize as two single-char puncts).
        if (!mutated && after + 1 < body_end &&
            ((toks[after].text == "+" && toks[after + 1].text == "+") ||
             (toks[after].text == "-" && toks[after + 1].text == "-"))) {
          mutated = true;
        }
        if (!mutated && j >= 2 &&
            ((toks[j - 1].text == "+" && toks[j - 2].text == "+") ||
             (toks[j - 1].text == "-" && toks[j - 2].text == "-"))) {
          mutated = true;
        }
        // Mutating member calls: x.push_back(...), x->clear(), ...
        if (!mutated && after + 2 < body_end &&
            (toks[after].text == "." || toks[after].text == "->") &&
            toks[after + 1].kind == TokKind::Identifier &&
            toks[after + 2].text == "(") {
          static const std::set<std::string> kMutators = {
              "push_back", "emplace_back", "emplace", "insert", "erase",
              "clear",     "resize",       "assign",  "append",
              "pop_back",  "push",         "pop"};
          mutated = kMutators.count(toks[after + 1].text) != 0;
        }
      }
      if (mutated && flagged.insert(name).second) {
        report(out, scan, ok, toks[i].line, "unguarded-capture",
               "lambda submitted to a ThreadPool mutates by-reference "
               "capture '" + name + "' with no lock/atomic evidence; "
               "guard it or justify the disjoint-slot idiom with an "
               "allow()");
      }
    }
  }
}

/// Cross-file check, run once after every file is scanned: each
/// EventType enumerator must be dispatched somewhere in driver.cpp as
/// `case EventType::X`. Only meaningful when driver.cpp is in the
/// scanned set (single-file lint runs would otherwise always fire).
void check_event_handler_complete(const std::vector<FileScan>& scans,
                                  Context& ctx) {
  if (!ctx.saw_driver_cpp) return;
  std::set<std::string> handled;
  for (const FileScan& scan : scans) {
    if (std::filesystem::path(scan.path).filename() != "driver.cpp") {
      continue;
    }
    const auto& toks = scan.tokens;
    for (std::size_t i = 3; i < toks.size(); ++i) {
      if (toks[i].kind == TokKind::Identifier &&
          toks[i - 1].text == "::" && toks[i - 2].text == "EventType" &&
          toks[i - 3].text == "case") {
        handled.insert(toks[i].text);
      }
    }
  }
  const Rule* rule = find_rule("event-handler-complete");
  for (const EventEnumerator& e : ctx.event_enumerators) {
    if (handled.count(e.name) != 0) continue;
    if (rule != nullptr && rule_exempt(*rule, e.path)) continue;
    const auto ok_it = ctx.allowed_by_path.find(e.path);
    if (ok_it != ctx.allowed_by_path.end() &&
        ok_it->second.count({"event-handler-complete", e.line}) != 0) {
      continue;
    }
    ctx.findings.push_back(
        {e.path, e.line, "event-handler-complete",
         "EventType::" + e.name + " has no `case EventType::" + e.name +
             "` dispatch in driver.cpp; the event would be scheduled but "
             "never handled"});
  }
}

// ---------------------------------------------------------------------------
// dagonarch: whole-program include-graph analysis. These checks are
// inherently cross-file, so they run serially once after the per-file
// fan-out, against the same sorted scan set — output stays byte-
// identical at any --jobs value.

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

/// The module of a scanned path: the path component directly after the
/// last `src` component ("src/sched/dagps.cpp" -> "sched"). Files with
/// no src/ component (tools/, bench/, tests/) are unlayered ("") — they
/// sit above the whole stack and may include anything.
std::string module_of_path(const std::string& path) {
  std::vector<std::string> parts;
  std::string cur;
  for (char c : path) {
    if (c == '/') {
      parts.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  parts.push_back(cur);
  for (std::size_t i = parts.size(); i-- > 0;) {
    if (parts[i] == "src") {
      // A module needs a directory level between src/ and the file.
      return i + 2 < parts.size() ? parts[i + 1] : std::string();
    }
  }
  return "";
}

/// Stable display name for a file: the path after its src/ component,
/// so graph output is independent of the invocation path.
std::string arch_node_name(const std::string& path) {
  const std::size_t pos = path.rfind("/src/");
  if (pos != std::string::npos) return path.substr(pos + 5);
  if (path.rfind("src/", 0) == 0) return path.substr(4);
  return path;
}

/// Parses the layer manifest: the quoted strings inside the
/// `order = [...]` array, bottom layer first. The format is a TOML
/// subset — one key, one string array — so no TOML library is needed.
bool parse_layer_manifest(const std::string& path,
                          std::vector<std::string>& order) {
  std::string text;
  if (!read_file(path, text)) return false;
  const std::size_t key = text.find("order");
  if (key == std::string::npos) return false;
  const std::size_t open = text.find('[', key);
  if (open == std::string::npos) return false;
  const std::size_t close = text.find(']', open);
  if (close == std::string::npos) return false;
  std::size_t i = open;
  while (true) {
    const std::size_t q1 = text.find('"', i);
    if (q1 == std::string::npos || q1 > close) break;
    const std::size_t q2 = text.find('"', q1 + 1);
    if (q2 == std::string::npos || q2 > close) break;
    order.push_back(text.substr(q1 + 1, q2 - q1 - 1));
    i = q2 + 1;
  }
  return !order.empty();
}

struct IncludeEdge {
  std::size_t from;  // scan index of the including file
  std::size_t to;    // scan index of the included file
  int line;          // include line in `from`
  std::string text;  // the include path as written
};

struct IncludeGraph {
  std::vector<IncludeEdge> edges;
  /// Per scan index: indices into `edges`, in include (line) order.
  std::vector<std::vector<std::size_t>> adj;
};

/// Resolves every quoted include to the scanned file it names: an exact
/// generic-path match, or a "/"-boundary suffix match (headers are
/// included module-relative while the scan roots are repo-relative).
/// Scans are path-sorted, so the first match is the lexicographically
/// smallest — resolution is deterministic on ambiguity. Unresolved
/// includes are external headers and carry no edge.
IncludeGraph build_include_graph(const std::vector<FileScan>& scans) {
  IncludeGraph g;
  g.adj.resize(scans.size());
  for (std::size_t i = 0; i < scans.size(); ++i) {
    for (const IncludeDirective& inc : scans[i].includes) {
      std::size_t target = scans.size();
      for (std::size_t j = 0; j < scans.size(); ++j) {
        const std::string& p = scans[j].path;
        const bool match =
            p == inc.text ||
            (p.size() > inc.text.size() + 1 &&
             p[p.size() - inc.text.size() - 1] == '/' &&
             p.compare(p.size() - inc.text.size(), inc.text.size(),
                       inc.text) == 0);
        if (match) {
          target = j;
          break;
        }
      }
      if (target == scans.size() || target == i) continue;
      g.adj[i].push_back(g.edges.size());
      g.edges.push_back({i, target, inc.line, inc.text});
    }
  }
  return g;
}

/// Reports a graph-pass finding unless the rule is path-exempt or an
/// allow() covers the line — under the rule's own id, or under the
/// documented `layering` alias for the two layering rules.
void report_graph(Context& ctx, const std::string& path, int line,
                  std::string_view rule, std::string message) {
  const Rule* r = find_rule(rule);
  if (r != nullptr && rule_exempt(*r, path)) return;
  const auto it = ctx.allowed_by_path.find(path);
  if (it != ctx.allowed_by_path.end()) {
    if (it->second.count({std::string(rule), line}) != 0) return;
    if ((rule == "layering-cycle" || rule == "upward-include") &&
        it->second.count({std::string(kLayeringAlias), line}) != 0) {
      return;
    }
  }
  ctx.findings.push_back({path, line, std::string(rule), std::move(message)});
}

void check_layering(const std::vector<FileScan>& scans,
                    const IncludeGraph& g,
                    const std::vector<std::string>& order, Context& ctx) {
  std::map<std::string, std::size_t> rank;
  for (std::size_t i = 0; i < order.size(); ++i) rank.emplace(order[i], i);
  for (const IncludeEdge& e : g.edges) {
    const std::string from_mod = module_of_path(scans[e.from].path);
    const std::string to_mod = module_of_path(scans[e.to].path);
    if (from_mod.empty() || to_mod.empty()) continue;  // unlayered side
    const auto from_it = rank.find(from_mod);
    const auto to_it = rank.find(to_mod);
    if (to_it == rank.end()) {
      report_graph(ctx, scans[e.from].path, e.line, "upward-include",
                   "include of '" + e.text + "': module '" + to_mod +
                       "' is not declared in the layer manifest");
      continue;
    }
    if (from_it == rank.end()) {
      report_graph(ctx, scans[e.from].path, e.line, "upward-include",
                   "file's module '" + from_mod +
                       "' is not declared in the layer manifest");
      continue;
    }
    if (to_it->second > from_it->second) {
      report_graph(ctx, scans[e.from].path, e.line, "upward-include",
                   "include of '" + e.text +
                       "' points up the layer order (" + from_mod +
                       " -> " + to_mod +
                       "); dependencies must point down the stack");
    }
  }
}

void check_cycles(const std::vector<FileScan>& scans, const IncludeGraph& g,
                  Context& ctx) {
  enum class Color : char { White, Gray, Black };
  struct Dfs {
    const std::vector<FileScan>& scans;
    const IncludeGraph& g;
    Context& ctx;
    std::vector<Color> color;
    std::vector<std::size_t> path;  // current gray chain
    void visit(std::size_t u) {
      color[u] = Color::Gray;
      path.push_back(u);
      for (std::size_t ei : g.adj[u]) {
        const IncludeEdge& e = g.edges[ei];
        if (color[e.to] == Color::Gray) {
          // Back edge: this include closes a cycle. Name the chain so
          // the finding is actionable without re-running anything.
          std::string chain;
          bool in_cycle = false;
          for (std::size_t n : path) {
            if (n == e.to) in_cycle = true;
            if (in_cycle) chain += arch_node_name(scans[n].path) + " -> ";
          }
          chain += arch_node_name(scans[e.to].path);
          report_graph(ctx, scans[u].path, e.line, "layering-cycle",
                       "include of '" + e.text +
                           "' closes an include cycle: " + chain);
        } else if (color[e.to] == Color::White) {
          visit(e.to);
        }
      }
      path.pop_back();
      color[u] = Color::Black;
    }
  };
  Dfs dfs{scans, g, ctx,
          std::vector<Color>(scans.size(), Color::White), {}};
  for (std::size_t i = 0; i < scans.size(); ++i) {
    if (dfs.color[i] == Color::White) dfs.visit(i);
  }
}

/// Names a header *declares* — type names, enumerators, using-aliases,
/// function and variable names, #define macros. Deliberately an
/// over-approximation: a false "provided" name only makes dead-include
/// quieter, which is the safe direction for a heuristic.
std::set<std::string> declared_names(const FileScan& scan) {
  std::set<std::string> names(scan.defines.begin(), scan.defines.end());
  const auto& toks = scan.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::Identifier) continue;
    if (t.text == "class" || t.text == "struct" || t.text == "union" ||
        t.text == "enum") {
      std::size_t j = i + 1;
      if (j < toks.size() &&
          (toks[j].text == "class" || toks[j].text == "struct")) {
        ++j;
      }
      if (j < toks.size() && toks[j].kind == TokKind::Identifier) {
        names.insert(toks[j].text);
      }
      if (t.text == "enum") {
        while (j < toks.size() && toks[j].text != "{" &&
               toks[j].text != ";") {
          ++j;
        }
        if (j < toks.size() && toks[j].text == "{") {
          const std::size_t end = matching_close(toks, j, "{", "}");
          for (std::size_t k = j + 1; k < end && k < toks.size(); ++k) {
            if (toks[k].kind == TokKind::Identifier &&
                (toks[k - 1].text == "{" || toks[k - 1].text == ",")) {
              names.insert(toks[k].text);
            }
          }
        }
      }
      continue;
    }
    if (t.text == "using" && i + 2 < toks.size() &&
        toks[i + 1].kind == TokKind::Identifier &&
        toks[i + 2].text == "=") {
      names.insert(toks[i + 1].text);
      continue;
    }
    if (decl_keyword(t.text) || i == 0 || i + 1 >= toks.size()) continue;
    const Token& prev = toks[i - 1];
    // `namespace dagon {` opens a scope, it declares nothing: counting
    // the name would let every header in the namespace vouch for every
    // include of every file in it.
    if (prev.text == "namespace") continue;
    const bool decl_prev = (prev.kind == TokKind::Identifier &&
                            !decl_keyword(prev.text)) ||
                           prev.text == ">" || prev.text == "&" ||
                           prev.text == "*";
    if (!decl_prev) continue;
    const std::string& next = toks[i + 1].text;
    // Function (Ret name(...)) or variable (Type name = / ; / { / [).
    if (next == "(" || next == "=" || next == ";" || next == "{" ||
        next == "[") {
      names.insert(t.text);
    }
  }
  return names;
}

/// memo[idx] = names provided by file idx AND its transitive include
/// subtree. Cycle-guarded: a gray node contributes what it has so far
/// (at least its own declarations).
void provided_closure(const std::vector<FileScan>& scans,
                      const IncludeGraph& g, std::size_t idx,
                      std::vector<std::set<std::string>>& memo,
                      std::vector<char>& mark) {
  if (mark[idx] != 0) return;
  mark[idx] = 1;
  memo[idx] = declared_names(scans[idx]);
  for (std::size_t ei : g.adj[idx]) {
    const std::size_t to = g.edges[ei].to;
    provided_closure(scans, g, to, memo, mark);
    memo[idx].insert(memo[to].begin(), memo[to].end());
  }
  mark[idx] = 2;
}

void check_dead_include(const std::vector<FileScan>& scans,
                        const IncludeGraph& g, Context& ctx) {
  std::vector<std::set<std::string>> provided(scans.size());
  std::vector<char> mark(scans.size(), 0);
  for (std::size_t i = 0; i < scans.size(); ++i) {
    provided_closure(scans, g, i, provided, mark);
  }
  for (std::size_t i = 0; i < scans.size(); ++i) {
    // Everything this file references: its code identifiers plus the
    // names on its preprocessor lines (#ifdef FOO never tokenizes).
    // #include lines are skipped — a header's path words must not vouch
    // for the header's own liveness.
    std::set<std::string> used;
    for (const Token& t : scans[i].tokens) {
      if (t.kind == TokKind::Identifier) used.insert(t.text);
    }
    for (const std::string& line : scans[i].raw_lines) {
      const std::size_t first = line.find_first_not_of(" \t");
      if (first == std::string::npos || line[first] != '#') continue;
      const std::size_t word = line.find_first_not_of(" \t", first + 1);
      if (word != std::string::npos &&
          line.compare(word, 7, "include") == 0) {
        continue;
      }
      std::string cur;
      for (char c : line) {
        if (ident_char(c)) {
          cur += c;
        } else {
          if (!cur.empty()) used.insert(cur);
          cur.clear();
        }
      }
      if (!cur.empty()) used.insert(cur);
    }
    for (std::size_t ei : g.adj[i]) {
      const IncludeEdge& e = g.edges[ei];
      const std::set<std::string>& prov = provided[e.to];
      const bool alive =
          std::any_of(prov.begin(), prov.end(), [&](const std::string& n) {
            return used.count(n) != 0;
          });
      if (!alive) {
        report_graph(ctx, scans[i].path, e.line, "dead-include",
                     "'" + e.text +
                         "' (and its whole include subtree) contributes "
                         "no identifier referenced here; drop the "
                         "include");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// doc-drift: the binaries and the docs cross-checked.

/// Quoted string literals on one raw line.
std::vector<std::string> quoted_strings(const std::string& line) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (true) {
    const std::size_t q1 = line.find('"', i);
    if (q1 == std::string::npos) break;
    const std::size_t q2 = line.find('"', q1 + 1);
    if (q2 == std::string::npos) break;
    out.push_back(line.substr(q1 + 1, q2 - q1 - 1));
    i = q2 + 1;
  }
  return out;
}

/// An exact long-option literal: --lowercase[-digits]. Help-text lines
/// ("  --workload NAME  ...") never match — only the parse-loop
/// comparisons do.
bool flag_literal(const std::string& s) {
  if (s.size() < 3 || s[0] != '-' || s[1] != '-') return false;
  if (std::islower(static_cast<unsigned char>(s[2])) == 0) return false;
  return std::all_of(s.begin() + 2, s.end(), [](char c) {
    return std::islower(static_cast<unsigned char>(c)) != 0 ||
           std::isdigit(static_cast<unsigned char>(c)) != 0 || c == '-';
  });
}

/// Every --flag literal and `name == "<preset>"` comparison in a
/// scanned dagonsim.cpp must appear in <docs-root>/README.md, and every
/// rule id in kRules must appear backticked in <docs-root>/DESIGN.md.
/// Returns 2 when the docs themselves are unreadable.
int check_doc_drift(const std::vector<FileScan>& scans,
                    const std::string& docs_root, Context& ctx) {
  const std::string readme_path = docs_root + "/README.md";
  const std::string design_path = docs_root + "/DESIGN.md";
  std::string readme;
  std::string design;
  if (!read_file(readme_path, readme) || !read_file(design_path, design)) {
    std::fprintf(stderr,
                 "dagonlint: --docs-root needs README.md and DESIGN.md "
                 "under %s\n",
                 docs_root.c_str());
    return 2;
  }
  // README lines mentioning "preset" — where preset names must live, so
  // an incidental word match elsewhere ("tail", "case") cannot vouch.
  std::vector<std::string> preset_lines;
  {
    std::istringstream ss(readme);
    std::string line;
    while (std::getline(ss, line)) {
      if (line.find("preset") != std::string::npos) {
        preset_lines.push_back(line);
      }
    }
  }
  for (const FileScan& scan : scans) {
    if (std::filesystem::path(scan.path).filename() != "dagonsim.cpp") {
      continue;
    }
    std::set<std::string> seen;
    for (std::size_t ln = 0; ln < scan.raw_lines.size(); ++ln) {
      const std::string& line = scan.raw_lines[ln];
      const int lineno = static_cast<int>(ln) + 1;
      for (const std::string& s : quoted_strings(line)) {
        if (!flag_literal(s) || !seen.insert(s).second) continue;
        if (readme.find(s) == std::string::npos) {
          report_graph(ctx, scan.path, lineno, "doc-drift",
                       "flag '" + s +
                           "' is parsed here but README.md never "
                           "mentions it");
        }
      }
      std::size_t p = line.find("name == \"");
      while (p != std::string::npos) {
        const std::size_t start = p + 9;
        const std::size_t q2 = line.find('"', start);
        if (q2 == std::string::npos) break;
        const std::string preset = line.substr(start, q2 - start);
        if (seen.insert("preset:" + preset).second) {
          const bool documented = std::any_of(
              preset_lines.begin(), preset_lines.end(),
              [&](const std::string& l) {
                return l.find(preset) != std::string::npos;
              });
          if (!documented) {
            report_graph(ctx, scan.path, lineno, "doc-drift",
                         "preset '" + preset +
                             "' is parsed here but no README.md line "
                             "documents it as a preset");
          }
        }
        p = line.find("name == \"", q2);
      }
    }
  }
  for (const Rule& r : kRules) {
    const std::string tick = "`" + std::string(r.id) + "`";
    if (design.find(tick) == std::string::npos) {
      report_graph(ctx, design_path, 1, "doc-drift",
                   "rule id " + tick +
                       " is missing from the DESIGN.md rule table");
    }
  }
  return 0;
}

/// --graph-dot: the include graph as module-clustered Graphviz DOT.
/// Only src/-module files appear (tools/bench/tests consume the
/// architecture, they are not part of it); clusters follow the manifest
/// order bottom-up, nodes and edges are sorted — the output is a stable
/// golden, diffed in CI like docs/fsm/*.dot.
void print_graph_dot(const std::vector<FileScan>& scans,
                     const IncludeGraph& g,
                     const std::vector<std::string>& order) {
  std::vector<std::string> node(scans.size());
  std::map<std::string, std::vector<std::string>> by_module;
  for (std::size_t i = 0; i < scans.size(); ++i) {
    const std::string mod = module_of_path(scans[i].path);
    if (mod.empty()) continue;
    node[i] = arch_node_name(scans[i].path);
    by_module[mod].push_back(node[i]);
  }
  std::printf("digraph include_graph {\n");
  std::printf("  rankdir=BT;\n");
  std::printf("  node [shape=box, fontsize=10];\n");
  std::vector<std::string> mods;
  for (const std::string& m : order) {
    if (by_module.count(m) != 0) mods.push_back(m);
  }
  for (const auto& [m, files] : by_module) {
    (void)files;
    if (std::find(order.begin(), order.end(), m) == order.end()) {
      mods.push_back(m);
    }
  }
  for (const std::string& m : mods) {
    std::printf("  subgraph \"cluster_%s\" {\n", m.c_str());
    std::printf("    label=\"%s\";\n", m.c_str());
    std::vector<std::string>& names = by_module[m];
    std::sort(names.begin(), names.end());
    for (const std::string& n : names) {
      std::printf("    \"%s\";\n", n.c_str());
    }
    std::printf("  }\n");
  }
  std::set<std::pair<std::string, std::string>> edges;
  for (const IncludeEdge& e : g.edges) {
    if (node[e.from].empty() || node[e.to].empty()) continue;
    edges.insert({node[e.from], node[e.to]});
  }
  for (const auto& [from, to] : edges) {
    std::printf("  \"%s\" -> \"%s\";\n", from.c_str(), to.c_str());
  }
  std::printf("}\n");
}

// ---------------------------------------------------------------------------
// Output formats.

enum class Format { Plain, Github, Sarif };

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void print_plain(const std::vector<Finding>& findings,
                 std::size_t files_scanned) {
  for (const Finding& f : findings) {
    std::printf("%s:%d: [%s] %s\n", f.path.c_str(), f.line, f.rule.c_str(),
                f.message.c_str());
  }
  std::printf("dagonlint: %zu finding(s) in %zu file(s) scanned\n",
              findings.size(), files_scanned);
}

/// GitHub Actions workflow-command annotations: one `::error` line per
/// finding, surfaced inline on the PR diff by the runner.
void print_github(const std::vector<Finding>& findings) {
  for (const Finding& f : findings) {
    std::printf("::error file=%s,line=%d,title=dagonlint %s::%s\n",
                f.path.c_str(), f.line, f.rule.c_str(), f.message.c_str());
  }
}

/// Minimal SARIF 2.1.0: one run, the full rule table as driver rules,
/// one result per finding — enough for GitHub code-scanning upload.
void print_sarif(const std::vector<Finding>& findings) {
  std::string out;
  out += "{\"version\":\"2.1.0\",";
  out += "\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",";
  out += "\"runs\":[{\"tool\":{\"driver\":{\"name\":\"dagonlint\",";
  out += "\"rules\":[";
  bool first = true;
  for (const Rule& r : kRules) {
    if (!first) out += ",";
    first = false;
    out += "{\"id\":\"" + json_escape(std::string(r.id)) + "\",";
    out += "\"shortDescription\":{\"text\":\"" +
           json_escape(std::string(r.summary)) + "\"}}";
  }
  out += "]}},\"results\":[";
  first = true;
  for (const Finding& f : findings) {
    if (!first) out += ",";
    first = false;
    out += "{\"ruleId\":\"" + json_escape(f.rule) + "\",";
    out += "\"level\":\"error\",";
    out += "\"message\":{\"text\":\"" + json_escape(f.message) + "\"},";
    out += "\"locations\":[{\"physicalLocation\":{\"artifactLocation\":";
    out += "{\"uri\":\"" + json_escape(f.path) + "\"},";
    out += "\"region\":{\"startLine\":" + std::to_string(f.line) + "}}}]}";
  }
  out += "]}]}";
  std::printf("%s\n", out.c_str());
}

// ---------------------------------------------------------------------------
// Driver.

bool source_file(const std::filesystem::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".cc" || ext == ".h";
}

/// dagonarch options: empty paths disable the corresponding pass, so a
/// bare `dagonlint <dir>` stays exactly the line-rule scan plus the
/// manifest-free graph rules (dead-include).
struct ArchOptions {
  std::string layers_path;  // --layers=FILE: layering-cycle + upward
  std::string docs_root;    // --docs-root=DIR: doc-drift
  bool graph_dot = false;   // --graph-dot: print DOT and exit
};

int run(const std::vector<std::string>& roots, Format format,
        std::size_t jobs, const ArchOptions& arch) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  for (const std::string& root : roots) {
    fs::path p(root);
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
      for (const auto& entry : fs::recursive_directory_iterator(p)) {
        if (entry.is_regular_file() && source_file(entry.path())) {
          files.push_back(entry.path().generic_string());
        }
      }
    } else if (fs::is_regular_file(p, ec)) {
      files.push_back(p.generic_string());
    } else {
      std::fprintf(stderr, "dagonlint: no such file or directory: %s\n",
                   root.c_str());
      return 2;
    }
  }
  std::sort(files.begin(), files.end());

  // IO stays serial (error reporting must be ordered and fatal); the
  // lexing — the bulk of the wall time — fans out per file.
  std::vector<std::string> texts(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    std::ifstream in(files[i]);
    if (!in) {
      std::fprintf(stderr, "dagonlint: cannot read %s\n", files[i].c_str());
      return 2;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    texts[i] = ss.str();
  }

  const std::size_t workers =
      std::max<std::size_t>(1, std::min(jobs, files.size()));
  std::vector<FileScan> scans(files.size());
  {
    dagon::ThreadPool pool(workers);
    for (std::size_t i = 0; i < files.size(); ++i) {
      // dagonlint: allow(unguarded-capture): each task writes only its own pre-sized slot i; pool.wait() is the sole reader's barrier
      pool.submit([&scans, &files, &texts, i] {
        scans[i] = lex_file(files[i], texts[i]);
      });
    }
    pool.wait();
  }

  std::vector<std::string> layer_order;
  if (!arch.layers_path.empty() &&
      !parse_layer_manifest(arch.layers_path, layer_order)) {
    std::fprintf(stderr,
                 "dagonlint: cannot parse layer manifest %s (want "
                 "`order = [\"bottom\", ..., \"top\"]`)\n",
                 arch.layers_path.c_str());
    return 2;
  }

  if (arch.graph_dot) {
    print_graph_dot(scans, build_include_graph(scans), layer_order);
    return 0;
  }

  // Pass A (serial, cross-file): the name collections every check reads.
  Context ctx;
  for (const FileScan& scan : scans) {
    collect_unordered_names(scan, ctx);
    collect_enum_info(scan, ctx);
    if (std::filesystem::path(scan.path).filename() == "driver.cpp") {
      ctx.saw_driver_cpp = true;
    }
  }

  // Pass B (parallel, per-file): every check writes into its own file's
  // slot; the in-order merge + (path, line, rule) sort below makes the
  // output byte-identical to a serial (--jobs=1) run.
  struct FileChecks {
    std::vector<Finding> findings;
    std::set<std::pair<std::string, int>> ok;
  };
  std::vector<FileChecks> per_file(scans.size());
  {
    dagon::ThreadPool pool(workers);
    for (std::size_t i = 0; i < scans.size(); ++i) {
      pool.submit([&scans, &per_file, &ctx, i] {
        const FileScan& scan = scans[i];
        FileChecks& fc = per_file[i];
        const std::vector<Allow> allows = parse_allows(scan);
        fc.ok = allow_coverage(scan, allows);
        for (const Allow& a : allows) {
          if (!known_allow_rule(a.rule)) {
            fc.findings.push_back(
                {scan.path, a.line, "bare-allow",
                 "allow() names unknown rule '" + a.rule + "'"});
          } else if (!a.justified) {
            fc.findings.push_back(
                {scan.path, a.line, "bare-allow",
                 "allow(" + a.rule + ") without a one-line justification"});
          }
        }
        check_unordered_iter(scan, ctx, fc.ok, fc.findings);
        check_nondet_source(scan, ctx, fc.ok, fc.findings);
        check_ptr_order(scan, ctx, fc.ok, fc.findings);
        check_float_accum(scan, ctx, fc.ok, fc.findings);
        check_raw_transition(scan, ctx, fc.ok, fc.findings);
        check_enum_switch_default(scan, ctx, fc.ok, fc.findings);
        check_raw_unit_decl(scan, ctx, fc.ok, fc.findings);
        check_narrowing_cast(scan, ctx, fc.ok, fc.findings);
        check_magic_unit_constant(scan, ctx, fc.ok, fc.findings);
        check_overflow_mul(scan, ctx, fc.ok, fc.findings);
        check_unguarded_global(scan, ctx, fc.ok, fc.findings);
        check_unguarded_capture(scan, ctx, fc.ok, fc.findings);
      });
    }
    pool.wait();
  }
  for (std::size_t i = 0; i < scans.size(); ++i) {
    ctx.findings.insert(ctx.findings.end(), per_file[i].findings.begin(),
                        per_file[i].findings.end());
    ctx.allowed_by_path.emplace(scans[i].path, std::move(per_file[i].ok));
  }
  check_event_handler_complete(scans, ctx);

  // dagonarch (serial, cross-file): the include graph is one shared
  // structure, so the graph rules run once after the per-file fan-out —
  // after allowed_by_path is filled, so include-line allows apply.
  const IncludeGraph graph = build_include_graph(scans);
  if (!layer_order.empty()) {
    check_layering(scans, graph, layer_order, ctx);
    check_cycles(scans, graph, ctx);
  }
  check_dead_include(scans, graph, ctx);
  if (!arch.docs_root.empty() &&
      check_doc_drift(scans, arch.docs_root, ctx) != 0) {
    return 2;
  }

  std::sort(ctx.findings.begin(), ctx.findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.path != b.path) return a.path < b.path;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  switch (format) {
    case Format::Plain:
      print_plain(ctx.findings, scans.size());
      break;
    case Format::Github:
      print_github(ctx.findings);
      break;
    case Format::Sarif:
      print_sarif(ctx.findings);
      break;
  }
  return ctx.findings.empty() ? 0 : 1;
}

constexpr const char* kUsage =
    "usage: dagonlint [--list-rules] [--format=plain|github|sarif] "
    "[--jobs=N] [--layers=FILE] [--docs-root=DIR] [--graph-dot] "
    "<file-or-dir>...\n";

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> roots;
  Format format = Format::Plain;
  ArchOptions arch;
  std::size_t jobs = std::thread::hardware_concurrency();
  if (jobs == 0) jobs = 4;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--list-rules") {
      for (const Rule& r : kRules) {
        std::printf("%-22s %.*s\n", std::string(r.id).c_str(),
                    static_cast<int>(r.summary.size()), r.summary.data());
      }
      return 0;
    }
    if (arg == "--help" || arg == "-h") {
      std::printf("%s", kUsage);
      return 0;
    }
    if (arg.rfind("--format=", 0) == 0) {
      const std::string_view value = arg.substr(9);
      if (value == "plain") {
        format = Format::Plain;
      } else if (value == "github") {
        format = Format::Github;
      } else if (value == "sarif") {
        format = Format::Sarif;
      } else {
        std::fprintf(stderr,
                     "dagonlint: unknown format '%.*s' "
                     "(plain|github|sarif)\n",
                     static_cast<int>(value.size()), value.data());
        return 2;
      }
      continue;
    }
    if (arg.rfind("--jobs=", 0) == 0) {
      const std::string value(arg.substr(7));
      char* end = nullptr;
      const long n = std::strtol(value.c_str(), &end, 10);
      if (end == nullptr || *end != '\0' || n < 1) {
        std::fprintf(stderr, "dagonlint: --jobs wants a positive integer\n");
        return 2;
      }
      jobs = static_cast<std::size_t>(n);
      continue;
    }
    if (arg.rfind("--layers=", 0) == 0) {
      arch.layers_path = std::string(arg.substr(9));
      continue;
    }
    if (arg.rfind("--docs-root=", 0) == 0) {
      arch.docs_root = std::string(arg.substr(12));
      continue;
    }
    if (arg == "--graph-dot") {
      arch.graph_dot = true;
      continue;
    }
    roots.emplace_back(arg);
  }
  if (roots.empty()) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  return run(roots, format, jobs, arch);
}
