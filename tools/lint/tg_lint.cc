#include "lint/tg_lint.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

namespace tailguard::lint {
namespace {

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

/// Replaces comments, string literals and char literals with spaces so the
/// rule scanners never match inside them. Newlines are preserved (including
/// inside block comments and raw strings) so line numbers stay valid.
std::string scrub(std::string_view src) {
  std::string out(src);
  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString,
  };
  State state = State::kCode;
  std::string raw_delim;  // for R"delim( ... )delim"
  for (std::size_t i = 0; i < src.size(); ++i) {
    const char c = src[i];
    const char next = i + 1 < src.size() ? src[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '"' &&
                   (i == 0 || src[i - 1] != 'R' ||
                    (i >= 2 && is_ident_char(src[i - 2])))) {
          state = State::kString;
          out[i] = ' ';
        } else if (c == '"') {  // R"...
          raw_delim.clear();
          std::size_t j = i + 1;
          while (j < src.size() && src[j] != '(') raw_delim += src[j++];
          state = State::kRawString;
          out[i] = ' ';
        } else if (c == '\'' && (i == 0 || !is_ident_char(src[i - 1]))) {
          // Leading-char test keeps digit separators (1'000'000) intact.
          state = State::kChar;
          out[i] = ' ';
        }
        break;
      case State::kLineComment:
        if (c == '\n')
          state = State::kCode;
        else
          out[i] = ' ';
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
        if (c == '\\' && next != '\0') {
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '"') {
          state = State::kCode;
          out[i] = ' ';
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kChar:
        if (c == '\\' && next != '\0') {
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
          out[i] = ' ';
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kRawString: {
        const std::string closer = ")" + raw_delim + "\"";
        if (src.compare(i, closer.size(), closer) == 0) {
          for (std::size_t k = 0; k < closer.size(); ++k) out[i + k] = ' ';
          i += closer.size() - 1;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      }
    }
  }
  return out;
}

std::vector<std::string_view> split_lines(std::string_view text) {
  std::vector<std::string_view> lines;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t nl = text.find('\n', start);
    if (nl == std::string_view::npos) {
      lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

/// Parses `// tg-lint: allow(rule-a, rule-b)` suppressions out of the raw
/// (un-scrubbed) line. Returns the allowed rule names, or empty if none.
std::set<std::string> parse_allows(std::string_view raw_line) {
  std::set<std::string> rules;
  const std::size_t at = raw_line.find("tg-lint:");
  if (at == std::string_view::npos) return rules;
  const std::size_t open = raw_line.find('(', at);
  const std::size_t close =
      open == std::string_view::npos ? open : raw_line.find(')', open);
  if (open == std::string_view::npos || close == std::string_view::npos)
    return rules;
  std::string token;
  for (std::size_t i = open + 1; i <= close; ++i) {
    const char c = raw_line[i];
    if (c == ',' || c == ')') {
      if (!token.empty()) rules.insert(token);
      token.clear();
    } else if (!std::isspace(static_cast<unsigned char>(c))) {
      token += c;
    }
  }
  return rules;
}

/// Finds whole-word occurrences of `word` in `line`; `from` advances the scan.
std::size_t find_word(std::string_view line, std::string_view word,
                      std::size_t from = 0) {
  while (from < line.size()) {
    const std::size_t at = line.find(word, from);
    if (at == std::string_view::npos) return std::string_view::npos;
    const bool left_ok = at == 0 || !is_ident_char(line[at - 1]);
    const std::size_t end = at + word.size();
    const bool right_ok = end >= line.size() || !is_ident_char(line[end]);
    if (left_ok && right_ok) return at;
    from = at + 1;
  }
  return std::string_view::npos;
}

char next_nonspace(std::string_view line, std::size_t from) {
  while (from < line.size() &&
         std::isspace(static_cast<unsigned char>(line[from])))
    ++from;
  return from < line.size() ? line[from] : '\0';
}

// ---------------------------------------------------------------------------
// Rule context
// ---------------------------------------------------------------------------

struct FileCtx {
  std::string path;                          // repo-relative
  std::vector<std::string_view> raw_lines;   // for suppressions
  std::vector<std::string_view> code_lines;  // scrubbed
  std::vector<Diagnostic>* diags = nullptr;

  bool in_dir(std::string_view dir) const { return starts_with(path, dir); }

  void report(int line_1based, std::string rule, std::string message) const {
    // A `tg-lint: allow(...)` on the offending line or the line above
    // suppresses the rule (or every rule, with `allow(all)`).
    for (int l = line_1based; l >= line_1based - 1 && l >= 1; --l) {
      const auto allows = parse_allows(raw_lines[static_cast<std::size_t>(l) - 1]);
      if (allows.count("all") || allows.count(rule)) return;
    }
    diags->push_back(Diagnostic{path, line_1based, std::move(rule),
                                std::move(message)});
  }
};

// ---------------------------------------------------------------------------
// determinism-random — std:: randomness sources outside src/common/rng.h
// ---------------------------------------------------------------------------

void check_determinism_random(const FileCtx& ctx) {
  if (ctx.path == "src/common/rng.h") return;
  static constexpr std::array<std::string_view, 8> kBanned = {
      "random_device",     "mt19937",  "mt19937_64", "minstd_rand",
      "default_random_engine", "ranlux24", "ranlux48", "knuth_b"};
  static constexpr std::array<std::string_view, 4> kBannedCalls = {
      "rand", "srand", "rand_r", "drand48"};
  for (std::size_t i = 0; i < ctx.code_lines.size(); ++i) {
    const std::string_view line = ctx.code_lines[i];
    for (const auto token : kBanned) {
      if (find_word(line, token) != std::string_view::npos) {
        ctx.report(static_cast<int>(i) + 1, "determinism-random",
                   "nondeterminism source '" + std::string(token) +
                       "'; draw from a seeded tailguard::Rng "
                       "(src/common/rng.h) so runs are reproducible");
        break;
      }
    }
    for (const auto fn : kBannedCalls) {
      const std::size_t at = find_word(line, fn);
      if (at != std::string_view::npos &&
          next_nonspace(line, at + fn.size()) == '(') {
        ctx.report(static_cast<int>(i) + 1, "determinism-random",
                   "libc randomness '" + std::string(fn) +
                       "()'; draw from a seeded tailguard::Rng "
                       "(src/common/rng.h) so runs are reproducible");
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// determinism-clock — wall/monotonic clock reads outside real-time layers
// ---------------------------------------------------------------------------

bool clock_allowed(const FileCtx& ctx) {
  // The networked runtime, the threaded runtime, and wall-clock bench timing
  // are genuinely real-time; everything else must run on simulated time.
  return ctx.in_dir("src/net/") || ctx.in_dir("src/runtime/") ||
         ctx.in_dir("bench/") || ctx.path == "tools/tailguard_served.cc" ||
         ctx.path == "tests/net_test.cc" || ctx.path == "tests/gossip_test.cc" ||
         ctx.path == "tests/runtime_test.cc" ||
         ctx.path == "tests/loadgen_test.cc";
}

void check_determinism_clock(const FileCtx& ctx) {
  if (clock_allowed(ctx)) return;
  static constexpr std::array<std::string_view, 5> kClocks = {
      "system_clock", "steady_clock", "high_resolution_clock", "clock_gettime",
      "gettimeofday"};
  for (std::size_t i = 0; i < ctx.code_lines.size(); ++i) {
    const std::string_view line = ctx.code_lines[i];
    for (const auto token : kClocks) {
      if (find_word(line, token) != std::string_view::npos) {
        ctx.report(static_cast<int>(i) + 1, "determinism-clock",
                   "wall/monotonic clock '" + std::string(token) +
                       "' in a deterministic layer; simulation code must "
                       "only observe simulated TimeMs");
        break;
      }
    }
    // time(nullptr) / time(NULL) / time(0) — the classic seed leak.
    std::size_t at = 0;
    while ((at = find_word(line, "time", at)) != std::string_view::npos) {
      std::size_t j = at + 4;
      while (j < line.size() &&
             std::isspace(static_cast<unsigned char>(line[j])))
        ++j;
      if (j < line.size() && line[j] == '(') {
        std::size_t k = j + 1;
        while (k < line.size() &&
               std::isspace(static_cast<unsigned char>(line[k])))
          ++k;
        for (const std::string_view arg : {"nullptr", "NULL", "0"}) {
          if (line.compare(k, arg.size(), arg) == 0 &&
              next_nonspace(line, k + arg.size()) == ')') {
            ctx.report(static_cast<int>(i) + 1, "determinism-clock",
                       "'time(" + std::string(arg) +
                           ")' wall-clock read; seed from configuration, "
                           "never from the clock");
            break;
          }
        }
      }
      at += 4;
    }
  }
}

// ---------------------------------------------------------------------------
// time-units — duration identifiers must carry a unit suffix
// ---------------------------------------------------------------------------

bool has_unit_suffix(std::string_view id) {
  if (ends_with(id, "_")) id.remove_suffix(1);  // member convention foo_ms_
  return ends_with(id, "_s") || ends_with(id, "_ms") || ends_with(id, "_us") ||
         ends_with(id, "_ns");
}

void check_time_units(const FileCtx& ctx) {
  static constexpr std::array<std::string_view, 9> kDurationWords = {
      "timeout", "elapsed",  "interval", "delay",  "latency",
      "duration", "budget",  "backoff",  "period"};
  for (std::size_t i = 0; i < ctx.code_lines.size(); ++i) {
    const std::string_view line = ctx.code_lines[i];
    std::string_view trimmed = line;
    while (!trimmed.empty() &&
           std::isspace(static_cast<unsigned char>(trimmed.front())))
      trimmed.remove_prefix(1);
    if (starts_with(trimmed, "#")) continue;  // preprocessor lines
    // std::chrono declarations carry their unit in the type system, which is
    // exactly what the rule wants — the identifier needs no suffix.
    if (line.find("chrono") != std::string_view::npos) continue;
    std::size_t pos = 0;
    while (pos < line.size()) {
      if (!is_ident_char(line[pos]) ||
          std::isdigit(static_cast<unsigned char>(line[pos]))) {
        ++pos;
        continue;
      }
      std::size_t end = pos;
      while (end < line.size() && is_ident_char(line[end])) ++end;
      std::string_view id = line.substr(pos, end - pos);
      const std::size_t id_start = pos;
      pos = end;
      // Qualified names (std::chrono::duration) and callees/templates
      // (estimator.budget(...), duration<double>) name operations or chrono
      // types, not unit-ambiguous quantities.
      if (id_start >= 2 && line[id_start - 1] == ':' &&
          line[id_start - 2] == ':')
        continue;
      const char after = next_nonspace(line, end);
      if (after == '(' || after == '<') continue;
      std::string_view stem = id;
      if (ends_with(stem, "_")) stem.remove_suffix(1);
      for (const auto word : kDurationWords) {
        if ((stem == word || ends_with(stem, std::string("_") + std::string(word))) &&
            !has_unit_suffix(id)) {
          ctx.report(static_cast<int>(i) + 1, "time-units",
                     "duration-valued identifier '" + std::string(id) +
                         "' has no unit suffix; name it '" + std::string(id) +
                         "_ms' (or _s/_us/_ns) or use std::chrono types "
                         "(Eq. 6 budgets and deadlines must be "
                         "unit-unambiguous)");
          break;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// lock-discipline — no naked .lock()/.unlock()/.try_lock()
// ---------------------------------------------------------------------------

void check_lock_discipline(const FileCtx& ctx) {
  static constexpr std::array<std::string_view, 3> kCalls = {"lock", "unlock",
                                                             "try_lock"};
  for (std::size_t i = 0; i < ctx.code_lines.size(); ++i) {
    const std::string_view line = ctx.code_lines[i];
    for (const auto fn : kCalls) {
      std::size_t at = 0;
      while ((at = find_word(line, fn, at)) != std::string_view::npos) {
        const bool member_call =
            (at >= 1 && line[at - 1] == '.') ||
            (at >= 2 && line[at - 2] == '-' && line[at - 1] == '>');
        std::size_t j = at + fn.size();
        const bool zero_arg_call =
            next_nonspace(line, j) == '(' &&
            next_nonspace(line, line.find('(', j) + 1) == ')';
        if (member_call && zero_arg_call) {
          ctx.report(static_cast<int>(i) + 1, "lock-discipline",
                     "naked ." + std::string(fn) +
                         "(); hold mutexes via std::lock_guard / "
                         "std::unique_lock / std::scoped_lock so early "
                         "returns and exceptions cannot leak the lock "
                         "(suppress for weak_ptr::lock with tg-lint: allow)");
          break;
        }
        at += fn.size();
      }
    }
  }
}

// ---------------------------------------------------------------------------
// header-hygiene — #pragma once first; no `using namespace` in headers
// ---------------------------------------------------------------------------

void check_header_hygiene(const FileCtx& ctx) {
  if (!ends_with(ctx.path, ".h")) return;
  bool saw_code = false;
  bool pragma_first = false;
  for (std::size_t i = 0; i < ctx.code_lines.size(); ++i) {
    const std::string_view line = ctx.code_lines[i];
    std::string_view trimmed = line;
    while (!trimmed.empty() &&
           std::isspace(static_cast<unsigned char>(trimmed.front())))
      trimmed.remove_prefix(1);
    while (!trimmed.empty() &&
           std::isspace(static_cast<unsigned char>(trimmed.back())))
      trimmed.remove_suffix(1);
    if (!saw_code && !trimmed.empty()) {
      saw_code = true;
      pragma_first = trimmed == "#pragma once";
      if (!pragma_first)
        ctx.report(static_cast<int>(i) + 1, "header-hygiene",
                   "header's first code line must be '#pragma once' "
                   "(include guards and late pragmas are error-prone)");
    }
    const std::size_t at = find_word(trimmed, "using");
    if (at != std::string_view::npos) {
      const std::size_t ns = find_word(trimmed, "namespace", at);
      if (ns != std::string_view::npos && ns > at &&
          trimmed.substr(at + 5, ns - at - 5).find_first_not_of(" \t") ==
              std::string_view::npos) {
        ctx.report(static_cast<int>(i) + 1, "header-hygiene",
                   "'using namespace' in a header leaks into every includer; "
                   "qualify names or alias instead");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// wire-safety — struct punning stays inside wire.cc's endian helpers
// ---------------------------------------------------------------------------

void check_wire_safety(const FileCtx& ctx) {
  if (!ctx.in_dir("src/net/") || ctx.path == "src/net/wire.cc") return;
  for (std::size_t i = 0; i < ctx.code_lines.size(); ++i) {
    const std::string_view line = ctx.code_lines[i];
    // Casting to sockaddr* is the POSIX API's own calling convention.
    if (find_word(line, "sockaddr") != std::string_view::npos) continue;
    if (find_word(line, "reinterpret_cast") != std::string_view::npos) {
      ctx.report(static_cast<int>(i) + 1, "wire-safety",
                 "reinterpret_cast in src/net/; wire bytes must go through "
                 "wire.cc's explicit little-endian helpers, never struct "
                 "punning (host endianness would leak onto the wire)");
    }
    if (find_word(line, "memcpy") != std::string_view::npos) {
      ctx.report(static_cast<int>(i) + 1, "wire-safety",
                 "memcpy in src/net/; serialize through wire.cc's explicit "
                 "little-endian helpers so multi-byte integers have one wire "
                 "order");
    }
  }
}

// ---------------------------------------------------------------------------
// control-plane-boundary — backends drive the control plane, never the parts
// ---------------------------------------------------------------------------

void check_control_plane_boundary(const FileCtx& ctx) {
  if (!ctx.in_dir("src/sim/") && !ctx.in_dir("src/runtime/") &&
      !ctx.in_dir("src/net/") && !ctx.in_dir("src/sas/") &&
      !ctx.in_dir("src/shard/"))
    return;
  // The control plane owns the pipeline's parts, as src/core does;
  // everything else — backends and the rest of src/shard — talks to
  // ShardedControlPlane, and cross-shard state flows through its sync round
  // only.
  const bool is_plane = ctx.path == "src/shard/sharded_control_plane.h" ||
                        ctx.path == "src/shard/sharded_control_plane.cc";
  static constexpr std::array<std::string_view, 3> kComponents = {
      "DeadlineEstimator", "QueryTracker", "AdmissionController"};
  // The live backends share one query lifecycle through
  // shard/query_front_door.h; the simulator, the SaS model and src/shard
  // still drive these plane calls directly.
  const bool live = ctx.in_dir("src/runtime/") || ctx.in_dir("src/net/");
  static constexpr std::array<std::string_view, 3> kLifecycleCalls = {
      "begin_query", "complete_task", "record_task_dequeue"};
  for (std::size_t i = 0; i < ctx.code_lines.size(); ++i) {
    const std::string_view line = ctx.code_lines[i];
    bool fired = false;
    for (const auto token : kComponents) {
      if (!is_plane && find_word(line, token) != std::string_view::npos) {
        ctx.report(static_cast<int>(i) + 1, "control-plane-boundary",
                   "'" + std::string(token) +
                       "' referenced in an execution backend; the per-query "
                       "pipeline (admission, Eq. 6/7 budgets, placement, t_D, "
                       "tracking, accounting) lives in "
                       "shard/sharded_control_plane.h — drive a "
                       "ShardedControlPlane instead of owning its parts, so "
                       "scheduling changes land once, not per backend");
        fired = true;
        break;
      }
    }
    if (fired) continue;
    if (live) {
      for (const auto token : kLifecycleCalls) {
        if (find_word(line, token) != std::string_view::npos) {
          ctx.report(static_cast<int>(i) + 1, "control-plane-boundary",
                     "'" + std::string(token) +
                         "' called in a live backend; the runtime and the "
                         "dispatcher run a query's lifecycle through "
                         "QueryFrontDoor (admit_and_place, begin, "
                         "finish_task in shard/query_front_door.h), so "
                         "admission, registration and merge are written "
                         "once, not per backend");
          fired = true;
          break;
        }
      }
      if (fired) continue;
    }
    // Placement is pluggable behind ShardedControlPlane::place(); a backend
    // that names a concrete policy class has hard-wired one strategy and
    // broken PlacementPolicyOptions selection. The control plane is NOT
    // exempt: it calls the policy, but policy construction belongs to
    // core/placement/policy.cc alone.
    static constexpr std::array<std::string_view, 2> kPlacementTokens = {
        "LeastLoadedPolicy", "PowerOfDPolicy"};
    for (const auto token : kPlacementTokens) {
      if (find_word(line, token) != std::string_view::npos) {
        ctx.report(static_cast<int>(i) + 1, "control-plane-boundary",
                   "'" + std::string(token) +
                       "' referenced in an execution backend; placement is a "
                       "pluggable policy behind ShardedControlPlane::place() "
                       "(core/placement/policy.h), selected via "
                       "PlacementPolicyOptions — naming a concrete policy "
                       "class hard-wires one strategy into this backend");
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// hot-path-map — node-based std maps stay out of the sim/core/shard hot path
// ---------------------------------------------------------------------------

void check_hot_path_map(const FileCtx& ctx) {
  if (!ctx.in_dir("src/sim/") && !ctx.in_dir("src/core/") &&
      !ctx.in_dir("src/shard/"))
    return;
  for (std::size_t i = 0; i < ctx.code_lines.size(); ++i) {
    const std::string_view line = ctx.code_lines[i];
    std::string offender;
    if (find_word(line, "unordered_map") != std::string_view::npos) {
      offender = "std::unordered_map";
    } else {
      std::size_t at = 0;
      while ((at = find_word(line, "map", at)) != std::string_view::npos) {
        if (at >= 5 && line[at - 1] == ':' && line[at - 2] == ':' &&
            line.compare(at - 5, 3, "std") == 0) {
          offender = "std::map";
          break;
        }
        at += 3;
      }
      if (offender.empty() &&
          next_nonspace(line, 0) == '#' &&
          line.find("<map>") != std::string_view::npos) {
        offender = "#include <map>";
      }
    }
    if (!offender.empty()) {
      ctx.report(static_cast<int>(i) + 1, "hot-path-map",
                 "'" + offender +
                     "' in a sim/core/shard hot-path file; node-based maps "
                     "allocate and pointer-chase per entry, which is what "
                     "the 10M tasks/s loop cannot afford — use SlabMap / "
                     "SlabHashCache (common/slab_map.h), or mark a genuinely "
                     "cold use with tg-lint: allow(hot-path-map)");
    }
  }
}

// ---------------------------------------------------------------------------
// atomic-order — every atomic access must pass an explicit std::memory_order
// ---------------------------------------------------------------------------

/// True when the argument list opening at `(line_idx, open_pos)` contains
/// `needle` before its matching ')'. Calls may span lines (a store whose
/// order rides on the continuation line); the scan is bounded at 8 lines.
bool call_args_contain(const std::vector<std::string_view>& lines,
                       std::size_t line_idx, std::size_t open_pos,
                       std::string_view needle) {
  int depth = 0;
  std::string args;
  for (std::size_t l = line_idx; l < lines.size() && l < line_idx + 8; ++l) {
    const std::string_view line = lines[l];
    for (std::size_t i = l == line_idx ? open_pos : 0; i < line.size(); ++i) {
      const char c = line[i];
      if (c == '(') {
        ++depth;
      } else if (c == ')') {
        if (--depth == 0) return args.find(needle) != std::string::npos;
      }
      if (depth >= 1) args += c;
    }
    args += ' ';
  }
  return args.find(needle) != std::string::npos;  // unterminated: best effort
}

void check_atomic_order(const FileCtx& ctx) {
  // Hot-path and tooling code must state its ordering intent; tests and
  // benches may lean on the seq_cst default for clarity.
  if (!ctx.in_dir("src/") && !ctx.in_dir("tools/")) return;
  static constexpr std::array<std::string_view, 11> kOps = {
      "load",      "store",     "exchange",
      "fetch_add", "fetch_sub", "fetch_and",
      "fetch_or",  "fetch_xor", "compare_exchange_weak",
      "compare_exchange_strong", "test_and_set"};
  for (std::size_t i = 0; i < ctx.code_lines.size(); ++i) {
    const std::string_view line = ctx.code_lines[i];
    for (const auto op : kOps) {
      std::size_t at = 0;
      while ((at = find_word(line, op, at)) != std::string_view::npos) {
        const bool member_call =
            (at >= 1 && line[at - 1] == '.') ||
            (at >= 2 && line[at - 2] == '-' && line[at - 1] == '>');
        const std::size_t after = at + op.size();
        if (member_call && next_nonspace(line, after) == '(' &&
            !call_args_contain(ctx.code_lines, i, line.find('(', after),
                               "memory_order")) {
          ctx.report(static_cast<int>(i) + 1, "atomic-order",
                     "atomic ." + std::string(op) +
                         "() without an explicit std::memory_order; the "
                         "implicit seq_cst default hides intent on the hot "
                         "path — state (and justify in a comment) the "
                         "weakest correct order, or suppress a non-atomic "
                         "member call with tg-lint: allow(atomic-order)");
          break;
        }
        at = after;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// guarded-member — mutex-owning classes must annotate their mutable members
// ---------------------------------------------------------------------------

bool brace_balanced(std::string_view line) {
  int depth = 0;
  for (const char c : line) {
    if (c == '{') ++depth;
    if (c == '}' && --depth < 0) return false;
  }
  return depth == 0;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front())))
    s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back())))
    s.remove_suffix(1);
  return s;
}

/// In the concurrent directories, a class that directly owns a Mutex must
/// say — in the type system, via TG_GUARDED_BY — which members that mutex
/// protects; anything deliberately unguarded (immutable after construction,
/// thread-private, self-synchronizing) carries an explicit allow with its
/// why-comment. A heuristic single-pass scanner: it tracks brace scopes,
/// marks which are class bodies, and collects unannotated data-member lines;
/// members that are themselves synchronization primitives (atomics, mutexes,
/// condvars, threads) and function/using/static declarations are exempt.
void check_guarded_member(const FileCtx& ctx) {
  const bool concurrent_dir =
      ctx.in_dir("src/runtime/") || ctx.in_dir("src/net/") ||
      ctx.in_dir("src/common/") || ctx.in_dir("src/shard/");
  if (!concurrent_dir) return;
  // The annotated primitives themselves (Mutex wraps a std::mutex, CondVar a
  // std::condition_variable_any).
  if (ctx.path == "src/common/thread_annotations.h") return;

  static constexpr std::array<std::string_view, 4> kMutexWords = {
      "Mutex", "mutex", "shared_mutex", "recursive_mutex"};
  static constexpr std::array<std::string_view, 8> kSyncWords = {
      "atomic",   "atomic_flag", "CondVar", "condition_variable",
      "thread",   "jthread",     "once_flag", "stop_token"};
  static constexpr std::array<std::string_view, 15> kDeclExempt = {
      "public",   "private", "protected", "using",    "typedef",
      "friend",   "template", "static",   "constexpr", "enum",
      "struct",   "class",   "union",     "operator", "const"};

  struct Scope {
    bool is_class = false;
    bool owns_mutex = false;
    std::vector<int> unannotated;  // 1-based candidate member lines
  };
  std::vector<Scope> stack;
  bool pending_class = false;

  const auto close_scope = [&ctx](const Scope& scope) {
    if (!scope.is_class || !scope.owns_mutex) return;
    for (const int line : scope.unannotated)
      ctx.report(line, "guarded-member",
                 "class owns a Mutex, so this mutable member needs "
                 "TG_GUARDED_BY(<its mutex>) (common/thread_annotations.h) — "
                 "or document why no lock protects it with tg-lint: "
                 "allow(guarded-member)");
  };

  for (std::size_t i = 0; i < ctx.code_lines.size(); ++i) {
    const std::string_view line = ctx.code_lines[i];

    // Member analysis against the scope state at line start.
    if (!stack.empty() && stack.back().is_class) {
      const std::string_view t = trim(line);
      if (!t.empty() && t.back() == ';' && brace_balanced(line)) {
        const bool annotated =
            t.find("TG_GUARDED_BY") != std::string_view::npos ||
            t.find("TG_PT_GUARDED_BY") != std::string_view::npos;
        // Parens mean a function declaration, a member with a paren
        // initializer, or the continuation line of a wrapped declaration —
        // none of which is a candidate, and none of which may claim mutex
        // ownership (e.g. a method *returning* locks).
        const bool has_paren = t.find('(') != std::string_view::npos ||
                               t.find(')') != std::string_view::npos;
        bool is_mutex = false;
        if (!has_paren)
          for (const auto w : kMutexWords)
            is_mutex |= find_word(t, w) != std::string_view::npos;
        if (is_mutex && !annotated) {
          stack.back().owns_mutex = true;
        } else if (!annotated && !has_paren) {
          bool exempt =
              !(std::isalpha(static_cast<unsigned char>(t.front())) ||
                t.front() == '_' || t.front() == ':');
          for (const auto w : kSyncWords)
            exempt |= find_word(t, w) != std::string_view::npos;
          const std::size_t tok_end = [&] {
            std::size_t e = 0;
            while (e < t.size() && is_ident_char(t[e])) ++e;
            return e;
          }();
          const std::string_view first_tok = t.substr(0, tok_end);
          for (const auto w : kDeclExempt) exempt |= first_tok == w;
          // Require a plausible two-token declaration (type then name) so
          // stray continuation fragments don't fire.
          exempt |= tok_end == t.size() - 1;
          if (!exempt)
            stack.back().unannotated.push_back(static_cast<int>(i) + 1);
        }
      }
    }

    // Class-head detection: `enum class` opens a plain (non-class) scope.
    if (!pending_class && find_word(line, "enum") == std::string_view::npos &&
        (find_word(line, "class") != std::string_view::npos ||
         find_word(line, "struct") != std::string_view::npos ||
         find_word(line, "union") != std::string_view::npos))
      pending_class = true;

    for (const char c : line) {
      if (c == '{') {
        stack.push_back(Scope{pending_class, false, {}});
        pending_class = false;
      } else if (c == '}') {
        if (!stack.empty()) {
          close_scope(stack.back());
          stack.pop_back();
        }
      } else if (c == ';' && pending_class) {
        pending_class = false;  // forward declaration
      }
    }
  }
  while (!stack.empty()) {  // unbalanced tail: still report what we saw
    close_scope(stack.back());
    stack.pop_back();
  }
}

}  // namespace

std::vector<Diagnostic> lint_source(const std::string& rel_path,
                                    std::string_view content) {
  const std::string scrubbed = scrub(content);
  FileCtx ctx;
  ctx.path = rel_path;
  ctx.raw_lines = split_lines(content);
  ctx.code_lines = split_lines(scrubbed);
  std::vector<Diagnostic> diags;
  ctx.diags = &diags;

  check_determinism_random(ctx);
  check_determinism_clock(ctx);
  check_time_units(ctx);
  check_lock_discipline(ctx);
  check_header_hygiene(ctx);
  check_wire_safety(ctx);
  check_control_plane_boundary(ctx);
  check_hot_path_map(ctx);
  check_atomic_order(ctx);
  check_guarded_member(ctx);

  std::sort(diags.begin(), diags.end(), [](const auto& a, const auto& b) {
    return std::tie(a.line, a.rule) < std::tie(b.line, b.rule);
  });
  return diags;
}

std::vector<Diagnostic> lint_paths(const std::string& root,
                                   const std::vector<std::string>& paths,
                                   std::string* error,
                                   std::size_t* num_files) {
  namespace fs = std::filesystem;
  error->clear();
  std::set<std::string> files;  // repo-relative, deduped, sorted
  const fs::path root_path(root);
  for (const auto& p : paths) {
    const fs::path abs = root_path / p;
    std::error_code ec;
    if (fs::is_directory(abs, ec)) {
      for (auto it = fs::recursive_directory_iterator(abs, ec);
           !ec && it != fs::recursive_directory_iterator(); ++it) {
        if (!it->is_regular_file()) continue;
        const std::string ext = it->path().extension().string();
        if (ext != ".h" && ext != ".cc") continue;
        const std::string rel =
            fs::relative(it->path(), root_path).generic_string();
        // The lint self-test's bad fixtures are violations on purpose; they
        // are linted explicitly by tests/lint_test.cc, not by tree walks.
        if (rel.find("lint_fixtures/") != std::string::npos) continue;
        // Likewise the thread-safety negative-compile fixtures: deliberately
        // broken locking, compiled (and required to FAIL) by ctest's
        // tsa_negative_compile, never linted.
        if (rel.find("tsa_fixtures/") != std::string::npos) continue;
        files.insert(rel);
      }
    } else if (fs::is_regular_file(abs, ec)) {
      files.insert(fs::relative(abs, root_path).generic_string());
    } else {
      *error = "no such file or directory: " + abs.string();
      return {};
    }
  }
  std::vector<Diagnostic> diags;
  for (const auto& rel : files) {
    std::ifstream in(root_path / rel, std::ios::binary);
    if (!in) {
      *error = "cannot read: " + rel;
      return {};
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string content = ss.str();
    auto file_diags = lint_source(rel, content);
    diags.insert(diags.end(), file_diags.begin(), file_diags.end());
  }
  if (num_files) *num_files = files.size();
  return diags;
}

std::string rule_summary() {
  return
      "determinism-random  std:: randomness sources; use tailguard::Rng "
      "(allowed: src/common/rng.h)\n"
      "determinism-clock   wall/monotonic clock reads in deterministic "
      "layers (allowed: src/net, src/runtime, bench, their tests)\n"
      "time-units          duration identifiers must end in _s/_ms/_us/_ns "
      "or use std::chrono\n"
      "lock-discipline     no naked .lock()/.unlock()/.try_lock(); RAII "
      "guards only\n"
      "header-hygiene      #pragma once first in headers; no 'using "
      "namespace' in headers\n"
      "wire-safety         no reinterpret_cast/memcpy in src/net outside "
      "wire.cc (sockaddr exempt)\n"
      "control-plane-boundary  src/sim, src/runtime, src/net, src/sas and "
      "src/shard must drive shard/sharded_control_plane.h, not "
      "DeadlineEstimator/QueryTracker/AdmissionController directly (only "
      "shard/sharded_control_plane.{h,cc} own them there); "
      "concrete placement policy classes (LeastLoadedPolicy/PowerOfDPolicy) "
      "are off-limits everywhere in those dirs, the control plane included "
      "— placement is selected via PlacementPolicyOptions; src/runtime and "
      "src/net run the query lifecycle through shard/query_front_door.h, "
      "never begin_query/complete_task/record_task_dequeue\n"
      "hot-path-map        no std::unordered_map / std::map in src/sim, "
      "src/core or src/shard; the hot path uses SlabMap / SlabHashCache "
      "(common/slab_map.h) — node-based maps allocate per entry\n"
      "atomic-order        atomic .load()/.store()/.exchange()/.fetch_*()/"
      "compare_exchange/.test_and_set() in src/ and tools/ must pass an "
      "explicit std::memory_order (the seq_cst default hides intent)\n"
      "guarded-member      in src/runtime, src/net, src/common and "
      "src/shard, a class owning a Mutex must TG_GUARDED_BY every mutable "
      "non-atomic member (common/thread_annotations.h) or carry an explicit "
      "allow explaining why no lock protects it\n"
      "\nSuppress a finding with '// tg-lint: allow(<rule>)' on the line or "
      "the line above.\n";
}

}  // namespace tailguard::lint
