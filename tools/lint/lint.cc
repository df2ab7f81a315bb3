#include "lint.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "token.h"

namespace lw::lint {
namespace {

// ---------------------------------------------------------------- rules

const char kCtCompare[] = "ct-compare";
const char kSecretIndex[] = "secret-index";
const char kTaintBranch[] = "secret-taint-branch";
const char kTaintIndex[] = "secret-taint-index";
const char kTaintCall[] = "secret-taint-call";
const char kInsecureRand[] = "insecure-rand";
const char kNakedNew[] = "naked-new";
const char kUncheckedResult[] = "unchecked-result";
const char kUncheckedReader[] = "unchecked-reader";
const char kVarTimeLoop[] = "var-time-loop";
const char kMetricLabelFromRequest[] = "metric-label-from-request";
const char kReceiveWithoutDeadline[] = "receive-without-deadline";
const char kRawSteadyClock[] = "raw-steady-clock";
const char kBlockingInReactor[] = "blocking-in-reactor";
const char kStaleAllow[] = "stale-allow";

// Pseudo-rule: an allow(secret-taint) annotation on an assignment
// declassifies the flow (taint does not propagate through it). It never
// appears as a finding itself, so it is not in AllRules().
const char kSecretTaintDeclassify[] = "secret-taint";

// Files exempt from secret-index / secret-taint-index: the software AES
// fallback is a table cipher (kSbox[state[i]] is its definition); the AES-NI
// path used in production is constant-time, and the fallback is documented
// in docs/STATIC_ANALYSIS.md.
const char* kSecretIndexWhitelist[] = {
    "src/crypto/aes128.cc",
};

// Identifier fragments that mark a value as secret material.
const char* kSecretTokens[] = {"key", "secret", "tag", "mac", "digest", "seed"};

// Fragments that neutralize a secret token inside the same identifier
// ("keyword" is a public dictionary word, not key material).
const char* kTokenExceptions[] = {"keyword", "tagline"};

// Operand fragments that make a comparison public even when a secret-named
// identifier appears (lengths, counts, status checks, metadata).
const char* kPublicOperandMarks[] = {
    ".size", ".length", ".empty", ".ok",    "sizeof",  "bits",
    "count", "version", "type",   "nullptr", ".end()", "null",
};

// Identifier fragments that mark a value as request-derived. A metric name
// or label built from one of these would record which blob or keyword a
// client touched — exactly the access pattern ZLTP's PIR layer exists to
// hide (paper §2). Metric names must be compile-time string literals; see
// docs/OBSERVABILITY.md ("Privacy rule").
const char* kRequestTaintTokens[] = {
    "request", "payload", "blob",  "url",     "uri",  "page",
    "path",    "domain",  "query", "keyword", "body",
};

// lw::crypto::ct helpers (src/crypto/ct.h). A call through `ct::` to one of
// these is a sanitizer: its result is branch/index-safe by construction, so
// taint does not flow out of the call expression.
const char* kCtSanitizers[] = {
    "ValueBarrier", "ValueBarrier32", "NonzeroMask", "ZeroMask",  "EqMask",
    "MaskFromBit32", "Select",        "Select32",    "CondAssign", "CondSwap",
    "EqBytesMask",   "Eq",
};

// Curated variable-time functions: their running time depends on the
// argument values (early-exit compares, hash probes, branchy search).
const char* kVarTimeFree[] = {"memcmp", "strcmp", "strncmp", "strlen",
                              "strstr", "strchr", "memchr"};
const char* kVarTimeStd[] = {"find",        "search",       "count",
                             "lower_bound", "upper_bound",  "binary_search",
                             "sort"};
const char* kVarTimeMember[] = {"find", "count", "at"};

// Members whose value is public even when the object is secret: the size of
// a key is not the key.
const char* kPublicMembers[] = {"size", "length", "empty",   "ok",
                                "begin", "end",   "capacity"};

// Identifiers that can never open a function definition's parameter list.
const char* kNotFunctionNames[] = {
    "if",     "for",      "while",    "switch",   "return",  "sizeof",
    "catch",  "new",      "delete",   "throw",    "alignof", "decltype",
    "static_assert",      "constexpr", "defined", "assert",  "co_await",
    "co_return",          "co_yield",
};

// ------------------------------------------------------------- helpers

bool EndsWithPath(const std::string& path, const std::string& suffix) {
  return path.size() >= suffix.size() &&
         path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool IsCryptoFile(const std::string& path) {
  return path.find("src/crypto/") != std::string::npos;
}

bool IsNetFile(const std::string& path) {
  return path.find("src/net/") != std::string::npos;
}

bool InList(const std::string& s, const char* const* list, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (s == list[i]) return true;
  }
  return false;
}
#define LW_IN_LIST(s, list) InList((s), (list), sizeof(list) / sizeof(*(list)))

std::string Lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), ::tolower);
  return s;
}

// Project constants (kFooSize, kAeadKeySize, ...) are compile-time public
// values, not secret data.
bool IsKConstant(const std::string& ident) {
  return ident.size() >= 2 && ident[0] == 'k' &&
         std::isupper(static_cast<unsigned char>(ident[1]));
}

// Secret-name heuristic on a single identifier: carries a secret token and
// is not a known-benign word. Sizes and lengths of secret buffers are
// public; LW_SECRET itself is the annotation macro, not a value.
bool NameHasSecretToken(const std::string& ident) {
  if (ident == "LW_SECRET") return false;
  if (IsKConstant(ident)) return false;
  const std::string low = Lower(ident);
  for (const char* ex : kTokenExceptions) {
    if (low.find(ex) != std::string::npos) return false;
  }
  if (low.find("size") != std::string::npos ||
      low.find("len") != std::string::npos) {
    return false;
  }
  for (const char* tok : kSecretTokens) {
    if (low.find(tok) != std::string::npos) return true;
  }
  return false;
}

// One propagation step recorded by the assignment collector: at `line`,
// `lhs` receives the value of the token range [rhs_a, rhs_b].
struct AssignEvent {
  int line = 0;
  std::string lhs;
  size_t rhs_a = 0;
  size_t rhs_b = 0;  // inclusive
};

class Linter {
 public:
  Linter(std::string path, const TokenizedFile& tf)
      : path_(std::move(path)), tf_(tf), t_(tf.tokens) {}

  std::vector<Finding> Run();

 private:
  // ---- infrastructure
  void ComputeMatches();
  void ComputeSanitizedSpans();
  void CollectSecretNames();
  void ComputeGuardLines();
  bool Allowed(int line, const std::string& rule) const;
  void MarkUsed(int line, const std::string& rule);
  void Report(int line, const std::string& rule, const std::string& message);

  // ---- token utilities
  bool IsIdent(size_t i, const char* text) const {
    return i < t_.size() && t_[i].kind == Tk::kIdent && t_[i].text == text;
  }
  bool IsPunct(size_t i, const char* text) const {
    return i < t_.size() && t_[i].kind == Tk::kPunct && t_[i].text == text;
  }
  // Matching bracket for an opener/closer, or npos.
  size_t Match(size_t i) const {
    return (i < match_.size() && match_[i] != SIZE_MAX) ? match_[i] : SIZE_MAX;
  }
  std::string JoinRange(size_t a, size_t b) const;
  bool LooksPublicOperandRange(size_t a, size_t b) const;
  bool HasSecretIdentRange(size_t a, size_t b) const;
  bool HasRequestTaintedRange(size_t a, size_t b) const;
  bool TaintedRange(size_t a, size_t b,
                    const std::set<std::string>& fn_tainted) const;
  bool IsSubscript(size_t i) const;

  // ---- ported rules (token scans)
  void CheckInsecureRand();
  void CheckNakedNew();
  void CheckMemcmp();
  void CheckCtEquality();
  void CheckSecretIndex();
  void CheckMetricLabel();
  void CheckReceiveDeadline();
  void CheckRawSteadyClock();
  void CheckBlockingInReactor();
  void CheckUncheckedResult();
  void CheckUncheckedReader();
  void CheckVarTimeLoops();

  // ---- taint engine
  void AnalyzeFunctions();
  void ProcessFunction(size_t body_a, size_t body_b);
  void CollectAssignments(size_t body_a, size_t body_b,
                          std::vector<AssignEvent>& events) const;
  bool DeclassifiedAt(int line) const;
  void CheckTaintSinks(size_t body_a, size_t body_b,
                       const std::set<std::string>& fn_tainted);

  void CheckStaleAllows();

  const std::string path_;
  const TokenizedFile& tf_;
  const std::vector<Token>& t_;
  std::vector<Finding> findings_;
  std::set<std::pair<std::string, int>> reported_;  // (rule, line) dedupe

  bool crypto_ = false;
  bool net_ = false;
  bool secret_index_whitelisted_ = false;

  std::vector<size_t> match_;          // bracket matching, both directions
  std::vector<bool> sanitized_;        // token is inside a ct::Helper(...) call
  std::set<std::string> secret_names_; // LW_SECRET-annotated declarations
  std::vector<bool> guard_result_;     // per 1-based line, size line_count+2
  std::vector<bool> guard_reader_;
  std::vector<bool> allow_used_;       // parallel to tf_.allow_sites
};

// ------------------------------------------------ infrastructure

void Linter::ComputeMatches() {
  match_.assign(t_.size(), SIZE_MAX);
  std::vector<size_t> paren, bracket, brace;
  for (size_t i = 0; i < t_.size(); ++i) {
    if (t_[i].kind != Tk::kPunct) continue;
    const std::string& x = t_[i].text;
    if (x == "(") paren.push_back(i);
    else if (x == "[") bracket.push_back(i);
    else if (x == "{") brace.push_back(i);
    else if (x == ")" && !paren.empty()) {
      match_[i] = paren.back();
      match_[paren.back()] = i;
      paren.pop_back();
    } else if (x == "]" && !bracket.empty()) {
      match_[i] = bracket.back();
      match_[bracket.back()] = i;
      bracket.pop_back();
    } else if (x == "}" && !brace.empty()) {
      match_[i] = brace.back();
      match_[brace.back()] = i;
      brace.pop_back();
    }
  }
}

void Linter::ComputeSanitizedSpans() {
  sanitized_.assign(t_.size(), false);
  for (size_t i = 0; i + 3 < t_.size(); ++i) {
    if (!IsIdent(i, "ct") || !IsPunct(i + 1, "::")) continue;
    if (t_[i + 2].kind != Tk::kIdent ||
        !LW_IN_LIST(t_[i + 2].text, kCtSanitizers)) {
      continue;
    }
    if (!IsPunct(i + 3, "(")) continue;
    const size_t close = Match(i + 3);
    if (close == SIZE_MAX) continue;
    for (size_t j = i; j <= close; ++j) sanitized_[j] = true;
  }
}

void Linter::CollectSecretNames() {
  for (size_t i = 0; i < t_.size(); ++i) {
    if (t_[i].pp || !IsIdent(i, "LW_SECRET")) continue;
    // The declared name is the last identifier before the declarator ends
    // (`;`/`,`/`)`/`=`/`{`/`[`/`:`), skipping template argument lists.
    std::string last;
    int angle = 0;
    for (size_t j = i + 1; j < t_.size(); ++j) {
      const Token& tok = t_[j];
      if (tok.kind == Tk::kPunct) {
        if (tok.text == "<") { ++angle; continue; }
        if (tok.text == ">") { if (angle > 0) --angle; continue; }
        if (tok.text == ">>") { angle = std::max(0, angle - 2); continue; }
        if (angle > 0) continue;
        if (tok.text == ";" || tok.text == "," || tok.text == ")" ||
            tok.text == "=" || tok.text == "{" || tok.text == "[" ||
            tok.text == ":") {
          break;
        }
        continue;
      }
      if (angle > 0) continue;
      if (tok.kind == Tk::kIdent) last = tok.text;
    }
    if (!last.empty()) secret_names_.insert(last);
  }
}

void Linter::ComputeGuardLines() {
  guard_result_.assign(static_cast<size_t>(tf_.line_count) + 2, false);
  guard_reader_.assign(static_cast<size_t>(tf_.line_count) + 2, false);
  auto mark = [&](int line, bool result_too) {
    if (line < 1 || line >= static_cast<int>(guard_result_.size())) return;
    guard_reader_[static_cast<size_t>(line)] = true;
    if (result_too) guard_result_[static_cast<size_t>(line)] = true;
  };
  for (size_t i = 0; i < t_.size(); ++i) {
    if (t_[i].kind != Tk::kIdent) continue;
    const std::string& x = t_[i].text;
    if (x == "ok" && i > 0 &&
        (IsPunct(i - 1, ".") || IsPunct(i - 1, "->")) && IsPunct(i + 1, "(")) {
      mark(t_[i].line, true);
    } else if (x.rfind("LW_CHECK", 0) == 0 || x == "LW_ASSIGN_OR_RETURN" ||
               x.rfind("ASSERT_", 0) == 0 || x.rfind("EXPECT_", 0) == 0) {
      mark(t_[i].line, true);
    } else if (x == "LW_RETURN_IF_ERROR") {
      mark(t_[i].line, false);
    }
  }
}

bool Linter::Allowed(int line, const std::string& rule) const {
  if (tf_.file_allows.count(rule) != 0) return true;
  const int idx = line - 1;  // 0-based
  if (idx >= 0 && idx < static_cast<int>(tf_.line_allows.size()) &&
      tf_.line_allows[static_cast<size_t>(idx)].count(rule) != 0) {
    return true;
  }
  // An annotation on the line directly above also applies.
  if (idx - 1 >= 0 && idx - 1 < static_cast<int>(tf_.line_allows.size()) &&
      tf_.line_allows[static_cast<size_t>(idx - 1)].count(rule) != 0) {
    return true;
  }
  return false;
}

void Linter::MarkUsed(int line, const std::string& rule) {
  for (size_t i = 0; i < tf_.allow_sites.size(); ++i) {
    const AllowSite& site = tf_.allow_sites[i];
    if (site.rule != rule) continue;
    if (site.whole_file || site.line == line || site.line == line - 1) {
      allow_used_[i] = true;
    }
  }
}

void Linter::Report(int line, const std::string& rule,
                    const std::string& message) {
  if (Allowed(line, rule)) {
    MarkUsed(line, rule);
    return;
  }
  if (!reported_.insert({rule, line}).second) return;
  findings_.push_back(Finding{path_, line, rule, message});
}

// ------------------------------------------------ token utilities

std::string Linter::JoinRange(size_t a, size_t b) const {
  std::string out;
  for (size_t i = a; i <= b && i < t_.size(); ++i) out += t_[i].text;
  return out;
}

bool Linter::LooksPublicOperandRange(size_t a, size_t b) const {
  const std::string joined = JoinRange(a, b);
  for (const char* mark : kPublicOperandMarks) {
    if (joined.find(mark) != std::string::npos) return true;
  }
  return false;
}

bool Linter::HasSecretIdentRange(size_t a, size_t b) const {
  for (size_t i = a; i <= b && i < t_.size(); ++i) {
    if (t_[i].kind != Tk::kIdent || t_[i].pp) continue;
    if (NameHasSecretToken(t_[i].text)) return true;
  }
  return false;
}

bool Linter::HasRequestTaintedRange(size_t a, size_t b) const {
  for (size_t i = a; i <= b && i < t_.size(); ++i) {
    if (t_[i].kind != Tk::kIdent || t_[i].pp) continue;
    if (IsKConstant(t_[i].text)) continue;
    const std::string low = Lower(t_[i].text);
    for (const char* tok : kRequestTaintTokens) {
      if (low.find(tok) != std::string::npos) return true;
    }
  }
  return false;
}

bool Linter::TaintedRange(size_t a, size_t b,
                          const std::set<std::string>& fn_tainted) const {
  for (size_t i = a; i <= b && i < t_.size(); ++i) {
    if (t_[i].pp) continue;
    if (sanitized_[i]) continue;  // inside a ct:: sanitizer call
    if (t_[i].kind != Tk::kIdent) continue;
    const std::string& name = t_[i].text;
    if (name == "sizeof" && IsPunct(i + 1, "(")) {
      const size_t close = Match(i + 1);
      if (close != SIZE_MAX && close <= b) { i = close; continue; }
    }
    if (name == "LW_SECRET" || IsKConstant(name)) continue;
    // The size of a secret buffer is public: `key.size()` contributes no
    // taint even though `key` does.
    if ((IsPunct(i + 1, ".") || IsPunct(i + 1, "->")) && i + 2 < t_.size() &&
        t_[i + 2].kind == Tk::kIdent &&
        LW_IN_LIST(t_[i + 2].text, kPublicMembers)) {
      i += 2;
      continue;
    }
    if (secret_names_.count(name) != 0) return true;
    if (fn_tainted.count(name) != 0) return true;
    if (crypto_ && NameHasSecretToken(name)) return true;
  }
  return false;
}

// A `[` is an array subscript only when it follows a postfix expression
// (identifier, `)`, or `]`). Everything else — lambda capture lists,
// attributes, structured bindings — is not a memory access. Keywords that
// can directly precede a lambda are excluded too.
bool Linter::IsSubscript(size_t i) const {
  if (!IsPunct(i, "[")) return false;
  if (IsPunct(i + 1, "[")) return false;  // [[attribute]]
  if (i == 0) return false;
  const Token& p = t_[i - 1];
  if (p.kind == Tk::kPunct) return p.text == ")" || p.text == "]";
  if (p.kind != Tk::kIdent) return false;
  static const char* kNotPostfix[] = {"auto",   "return", "case",
                                      "new",    "delete", "throw",
                                      "co_return", "co_yield"};
  return !LW_IN_LIST(p.text, kNotPostfix);
}

// ------------------------------------------------ ported rules

void Linter::CheckInsecureRand() {
  static const char* kRandNames[] = {"rand", "srand", "drand48", "lrand48",
                                     "random_shuffle"};
  for (size_t i = 0; i < t_.size(); ++i) {
    if (t_[i].pp || t_[i].kind != Tk::kIdent) continue;
    if (!LW_IN_LIST(t_[i].text, kRandNames)) continue;
    if (!IsPunct(i + 1, "(")) continue;
    // `std::rand(` is flagged; `lw::Rng::rand(` or any other qualified name
    // is someone else's rand.
    if (i >= 2 && IsPunct(i - 1, "::") && !IsIdent(i - 2, "std")) continue;
    Report(t_[i].line, kInsecureRand,
           "libc randomness is not seedable/secure enough for this "
           "codebase; use lw::Rng (simulation) or lw::SecureRandom "
           "(secrets)");
  }
}

void Linter::CheckNakedNew() {
  for (size_t i = 0; i < t_.size(); ++i) {
    if (t_[i].pp || t_[i].kind != Tk::kIdent) continue;
    if (t_[i].text == "new") {
      if (i > 0 && (IsPunct(i - 1, ".") || IsPunct(i - 1, "->") ||
                    IsPunct(i - 1, "::") || IsIdent(i - 1, "operator"))) {
        continue;
      }
      if (i + 1 < t_.size() &&
          (t_[i + 1].kind == Tk::kIdent || IsPunct(i + 1, "::"))) {
        Report(t_[i].line, kNakedNew,
               "naked new; use std::make_unique/containers so ownership is "
               "explicit and exception-safe");
      }
    } else if (t_[i].text == "delete") {
      if (i > 0 && (IsPunct(i - 1, "=") || IsIdent(i - 1, "operator"))) {
        continue;
      }
      Report(t_[i].line, kNakedNew,
             "naked delete; owning raw pointers are banned outside the "
             "allocator layer");
    }
  }
}

void Linter::CheckMemcmp() {
  for (size_t i = 0; i < t_.size(); ++i) {
    if (t_[i].pp || !IsIdent(i, "memcmp") || !IsPunct(i + 1, "(")) continue;
    const size_t close = Match(i + 1);
    if (close == SIZE_MAX) continue;
    if (HasSecretIdentRange(i + 2, close - 1)) {
      Report(t_[i].line, kCtCompare,
             "memcmp on secret material leaks a timing side channel; use "
             "lw::crypto::ct::Eq");
    }
  }
}

void Linter::CheckCtEquality() {
  // Operands of ==/!= in crypto sources must not be secret-named values.
  for (size_t i = 0; i < t_.size(); ++i) {
    if (t_[i].pp || t_[i].kind != Tk::kPunct) continue;
    if (t_[i].text != "==" && t_[i].text != "!=") continue;
    // Left operand: a postfix chain ending just before the operator.
    size_t l = i;  // exclusive lower bound walker
    while (l > 0) {
      const Token& p = t_[l - 1];
      if (p.kind == Tk::kIdent || p.kind == Tk::kNumber) { --l; continue; }
      if (p.kind == Tk::kPunct &&
          (p.text == "." || p.text == "->" || p.text == "::" ||
           p.text == "-")) { --l; continue; }
      if (p.kind == Tk::kPunct && (p.text == ")" || p.text == "]")) {
        const size_t open = Match(l - 1);
        if (open == SIZE_MAX) break;
        l = open;
        continue;
      }
      break;
    }
    // Right operand.
    size_t r = i;  // exclusive upper bound walker
    while (r + 1 < t_.size()) {
      const Token& n = t_[r + 1];
      if (n.kind == Tk::kIdent || n.kind == Tk::kNumber) { ++r; continue; }
      if (n.kind == Tk::kPunct &&
          (n.text == "." || n.text == "->" || n.text == "::" ||
           n.text == "-")) { ++r; continue; }
      if (n.kind == Tk::kPunct && (n.text == "(" || n.text == "[")) {
        const size_t close = Match(r + 1);
        if (close == SIZE_MAX) break;
        r = close;
        continue;
      }
      break;
    }
    if (l >= i || r <= i) continue;  // an operand is empty
    if (LooksPublicOperandRange(l, i - 1) ||
        LooksPublicOperandRange(i + 1, r)) {
      continue;
    }
    if (HasSecretIdentRange(l, i - 1) || HasSecretIdentRange(i + 1, r)) {
      Report(t_[i].line, kCtCompare,
             "variable-time comparison of secret material; use "
             "lw::crypto::ct::Eq / EqMask");
    }
  }
}

void Linter::CheckSecretIndex() {
  if (secret_index_whitelisted_) return;
  for (size_t i = 0; i < t_.size(); ++i) {
    if (t_[i].pp || !IsSubscript(i)) continue;
    const size_t close = Match(i);
    if (close == SIZE_MAX || close <= i + 1) continue;
    bool nested = false;
    for (size_t j = i + 1; j < close; ++j) {
      if (IsPunct(j, "[")) nested = true;
    }
    if (HasSecretIdentRange(i + 1, close - 1)) {
      Report(t_[i].line, kSecretIndex,
             "array access indexed by secret material; memory addresses "
             "leak through the cache — use a constant-time scan "
             "(crypto::ct::CondAssign over all slots)");
    } else if (crypto_ && nested &&
               !LooksPublicOperandRange(i + 1, close - 1)) {
      Report(t_[i].line, kSecretIndex,
             "nested data-dependent table lookup in crypto code; table "
             "indices derived from processed data leak through the cache");
    }
  }
}

void Linter::CheckMetricLabel() {
  // Metric registration must use compile-time literal names. Literal bodies
  // are blanked by the tokenizer, so any request-tainted identifier among a
  // registration's arguments means the metric name/label is being built
  // from per-request data, which would record the access pattern PIR hides
  // (paper §2).
  static const char* kRegisterNames[] = {
      "AddCounter",      "AddGauge",      "AddHistogram",
      "RegisterCounter", "RegisterGauge", "RegisterHistogram"};
  for (size_t i = 0; i < t_.size(); ++i) {
    if (t_[i].pp || t_[i].kind != Tk::kIdent) continue;
    if (!LW_IN_LIST(t_[i].text, kRegisterNames)) continue;
    if (!IsPunct(i + 1, "(")) continue;
    const size_t close = Match(i + 1);
    if (close == SIZE_MAX || close <= i + 2) continue;
    if (HasRequestTaintedRange(i + 2, close - 1)) {
      Report(t_[i].line, kMetricLabelFromRequest,
             "metric name/label built from request-derived data; telemetry "
             "must be aggregate-only (literal names), or it re-leaks the "
             "access pattern PIR hides — see docs/OBSERVABILITY.md");
    }
  }
}

void Linter::CheckReceiveDeadline() {
  // Outside the transport layer every Receive must name a deadline, even
  // if it is Deadline::Infinite() — an unbounded read should be a visible,
  // deliberate decision (docs/ROBUSTNESS.md), not the default a hung peer
  // exploits. The one sanctioned exception is the server's long-poll on
  // the batcher loop, which carries an allow annotation.
  for (size_t i = 1; i < t_.size(); ++i) {
    if (t_[i].pp || !IsIdent(i, "Receive")) continue;
    if (!IsPunct(i - 1, ".") && !IsPunct(i - 1, "->")) continue;
    if (!IsPunct(i + 1, "(") || !IsPunct(i + 2, ")")) continue;
    Report(t_[i].line, kReceiveWithoutDeadline,
           "Receive() with no deadline blocks forever on a hung peer; pass "
           "a net::Deadline (Deadline::Infinite() if waiting forever is "
           "truly intended) — see docs/ROBUSTNESS.md");
  }
}

void Linter::CheckRawSteadyClock() {
  // Scheduling and transport code (src/zltp, src/net) must read time
  // through lw::Clock: the batch scheduler's admission controller and the
  // transport deadlines are tested with a FakeClock, and a raw
  // steady_clock::now() is wall time those tests cannot advance — the
  // deadline machinery silently stops being deterministic. Instrumentation
  // stamps (trace spans) go through obs::TraceNow() instead, which keeps
  // the one sanctioned direct read in src/obs.
  for (size_t i = 0; i + 3 < t_.size(); ++i) {
    if (t_[i].pp || !IsIdent(i, "steady_clock")) continue;
    if (!IsPunct(i + 1, "::") || !IsIdent(i + 2, "now") ||
        !IsPunct(i + 3, "(")) {
      continue;
    }
    Report(t_[i].line, kRawSteadyClock,
           "raw steady_clock::now() in scheduling code; read time through "
           "the injectable lw::Clock (or obs::TraceNow() for trace stamps) "
           "so FakeClock tests stay deterministic");
  }
}

void Linter::CheckBlockingInReactor() {
  // src/net is reactor-owned territory: one loop thread multiplexes every
  // connection, so a single blocking accept/recv/send there stalls all of
  // them. Accepts must be accept4(..., SOCK_NONBLOCK); recv/send must pass
  // MSG_DONTWAIT (or run on descriptors a dedicated thread owns — the
  // client-side TcpTransport in tcp.cc, which carries allow hatches
  // because blocking is its design). See docs/ARCHITECTURE.md.
  for (size_t i = 0; i < t_.size(); ++i) {
    if (t_[i].pp) continue;
    const bool is_accept = IsIdent(i, "accept");
    const bool is_recv = IsIdent(i, "recv");
    const bool is_send = IsIdent(i, "send");
    const bool is_connect = IsIdent(i, "connect");
    if (!is_accept && !is_recv && !is_send && !is_connect) continue;
    if (!IsPunct(i + 1, "(")) continue;
    // x.send(...) / x->recv(...) are method calls on our own framed
    // abstractions, not POSIX syscalls.
    if (i > 0 && (IsPunct(i - 1, ".") || IsPunct(i - 1, "->"))) continue;
    // `ssize_t recv(` is a declaration, not a call: a preceding identifier
    // is a return type unless it is an expression-context keyword.
    if (i > 0 && t_[i - 1].kind == Tk::kIdent) {
      static const char* kExprKeywords[] = {"return", "co_return", "co_await",
                                            "co_yield", "throw", "else", "do"};
      if (!LW_IN_LIST(t_[i - 1].text, kExprKeywords)) continue;
    }
    if (is_accept) {
      Report(t_[i].line, kBlockingInReactor,
             "blocking accept() in reactor-owned code stalls every "
             "connection the loop serves; use accept4(..., SOCK_NONBLOCK) "
             "on an epoll-registered listener (client-side blocking path: justify "
             "with an allow) — see docs/ARCHITECTURE.md");
      continue;
    }
    if (is_connect) {
      // A bare ::connect on a blocking socket wedges the loop for a full
      // TCP handshake (or its multi-second timeout). The non-blocking dial
      // idiom necessarily treats EINPROGRESS as success and finishes via
      // EPOLLOUT + SO_ERROR (TcpConnectStart / Reactor::Connect), so a
      // connect call with no EINPROGRESS handling in sight is the blocking
      // form.
      bool einprogress = false;
      const int limit = t_[i].line + 8;
      for (size_t j = i + 1; j < t_.size() && t_[j].line <= limit; ++j) {
        if (IsIdent(j, "EINPROGRESS")) {
          einprogress = true;
          break;
        }
      }
      if (einprogress) continue;
      Report(t_[i].line, kBlockingInReactor,
             "blocking connect() in reactor-owned code stalls every "
             "connection the loop serves for a full handshake; start the "
             "dial non-blocking (SOCK_NONBLOCK, EINPROGRESS) and finish it "
             "via EPOLLOUT + SO_ERROR (client-side blocking path: justify with an "
             "allow) — see docs/ARCHITECTURE.md");
      continue;
    }
    const size_t close = Match(i + 1);
    bool dontwait = false;
    if (close != SIZE_MAX) {
      for (size_t j = i + 2; j < close; ++j) {
        if (IsIdent(j, "MSG_DONTWAIT")) {
          dontwait = true;
          break;
        }
      }
    }
    if (dontwait) continue;
    Report(t_[i].line, kBlockingInReactor,
           std::string("blocking ") + (is_recv ? "recv()" : "send()") +
               " in reactor-owned code stalls every connection the loop "
               "serves; pass MSG_DONTWAIT and resume via the connection's "
               "frame queue on EAGAIN (client-side blocking path: justify with an "
               "allow) — see docs/ARCHITECTURE.md");
  }
}

void Linter::CheckUncheckedResult() {
  for (size_t i = 0; i + 3 < t_.size(); ++i) {
    if (t_[i].pp || !IsPunct(i, ".")) continue;
    if (!IsIdent(i + 1, "value") || !IsPunct(i + 2, "(") ||
        !IsPunct(i + 3, ")")) {
      continue;
    }
    // A visible guard on the same or the three preceding lines counts:
    // .ok() tests, LW_CHECK/LW_ASSIGN_OR_RETURN, or test assertions.
    const int line = t_[i + 1].line;
    bool guarded = false;
    for (int g = std::max(1, line - 3); g <= line; ++g) {
      if (guard_result_[static_cast<size_t>(g)]) guarded = true;
    }
    if (guarded) continue;
    Report(line, kUncheckedResult,
           "Result<T>::value() without a visible ok() check; use "
           "LW_ASSIGN_OR_RETURN or LW_CHECK the status first");
  }
}

void Linter::CheckUncheckedReader() {
  // Every lw::Reader decode returns Result<T>; wiring that value into the
  // surrounding expression without a status check turns a truncated frame
  // into an InvariantViolation at best and silently-wrong data at worst.
  // Three shapes are flagged:
  //   *r.U32()                    dereference of the temporary
  //   r.LengthPrefixed(...)->...  member access through the temporary
  //   r.U32();                    discarded read (bytes consumed, value
  //                               and status both dropped)
  // Writer methods of the same names all take arguments and return void,
  // so the zero-arg discard pattern cannot fire on a Writer.
  static const char* kDecodeNames[] = {"U8",  "U16",    "U32",
                                       "U64", "Raw",    "LengthPrefixed",
                                       "String"};
  static const char* kDiscardNames[] = {"U8",  "U16",            "U32",
                                        "U64", "LengthPrefixed", "String"};
  auto guarded = [&](int line) {
    for (int g = std::max(1, line - 3); g <= line; ++g) {
      if (guard_reader_[static_cast<size_t>(g)]) return true;
    }
    return false;
  };
  auto report = [&](int line) {
    if (guarded(line)) return;
    Report(line, kUncheckedReader,
           "Reader decode result used without a status check; a short or "
           "malformed frame must become a ProtocolError, not data — use "
           "LW_ASSIGN_OR_RETURN (see docs/FUZZING.md)");
  };
  for (size_t i = 0; i < t_.size(); ++i) {
    if (t_[i].pp) continue;
    // *r.U32( — dereference of the decode temporary.
    if (IsPunct(i, "*") && i + 4 < t_.size() &&
        t_[i + 1].kind == Tk::kIdent && IsPunct(i + 2, ".") &&
        t_[i + 3].kind == Tk::kIdent &&
        LW_IN_LIST(t_[i + 3].text, kDecodeNames) && IsPunct(i + 4, "(")) {
      report(t_[i + 3].line);
    }
    // .U32(args)-> or .U32(args).value — reading through the temporary.
    if (IsPunct(i, ".") && i + 2 < t_.size() &&
        t_[i + 1].kind == Tk::kIdent &&
        LW_IN_LIST(t_[i + 1].text, kDecodeNames) && IsPunct(i + 2, "(")) {
      const size_t close = Match(i + 2);
      if (close != SIZE_MAX && close + 1 < t_.size()) {
        if (IsPunct(close + 1, "->") ||
            (IsPunct(close + 1, ".") && IsIdent(close + 2, "value"))) {
          report(t_[i + 1].line);
        }
      }
    }
    // Statement of the exact shape `obj.member...U16();` — discarded read.
    const bool stmt_start =
        i == 0 || IsPunct(i - 1, ";") || IsPunct(i - 1, "{") ||
        IsPunct(i - 1, "}");
    if (stmt_start && t_[i].kind == Tk::kIdent) {
      size_t k = i;
      while (k + 2 < t_.size() && IsPunct(k + 1, ".") &&
             t_[k + 2].kind == Tk::kIdent) {
        k += 2;
      }
      if (k > i && LW_IN_LIST(t_[k].text, kDiscardNames) &&
          IsPunct(k + 1, "(") && IsPunct(k + 2, ")") && IsPunct(k + 3, ";")) {
        report(t_[k].line);
      }
    }
  }
}

void Linter::CheckVarTimeLoops() {
  // Sequential walk tracking which brace depths are loop bodies; an early
  // exit while any loop is open, or a secret-named loop bound, is
  // variable time. Crypto-only.
  int depth = 0;
  bool pending_loop = false;
  std::vector<int> loop_depths;
  for (size_t i = 0; i < t_.size(); ++i) {
    if (t_[i].pp) continue;
    const Token& tok = t_[i];
    if (tok.kind == Tk::kIdent &&
        (tok.text == "for" || tok.text == "while") && IsPunct(i + 1, "(")) {
      const size_t close = Match(i + 1);
      if (close == SIZE_MAX) continue;
      // Only the parenthesized head is the loop bound; the body may
      // legitimately touch secrets.
      if (close > i + 2 && !LooksPublicOperandRange(i + 1, close) &&
          HasSecretIdentRange(i + 2, close - 1)) {
        Report(tok.line, kVarTimeLoop,
               "loop bound depends on secret material; iteration counts "
               "leak through timing — bound by the (public) buffer size");
      }
      pending_loop = true;
      i = close;  // the head's own `;` tokens must not clear the flag
      continue;
    }
    if (tok.kind == Tk::kPunct) {
      if (tok.text == "{") {
        ++depth;
        if (pending_loop) {
          loop_depths.push_back(depth);
          pending_loop = false;
        }
      } else if (tok.text == "}") {
        if (!loop_depths.empty() && loop_depths.back() == depth) {
          loop_depths.pop_back();
        }
        --depth;
      } else if (tok.text == ";" && pending_loop) {
        // Braceless loop body or a do-while tail; nothing to track.
        pending_loop = false;
      }
      continue;
    }
    if (!loop_depths.empty() && tok.kind == Tk::kIdent &&
        (tok.text == "return" ||
         (tok.text == "break" && IsPunct(i + 1, ";")))) {
      Report(tok.line, kVarTimeLoop,
             "early exit from a loop in crypto code is variable-time; "
             "accumulate into a mask and exit at the bound instead");
    }
  }
}

// ------------------------------------------------ taint engine

// Walks the token stream for function definitions: `name(params)` followed
// (possibly via const/noexcept/trailing return/ctor-init) by a `{` body.
void Linter::AnalyzeFunctions() {
  const size_t n = t_.size();
  size_t i = 0;
  while (i < n) {
    if (t_[i].pp || !IsPunct(i, "(") || i == 0 ||
        t_[i - 1].kind != Tk::kIdent ||
        LW_IN_LIST(t_[i - 1].text, kNotFunctionNames)) {
      ++i;
      continue;
    }
    const size_t close = Match(i);
    if (close == SIZE_MAX) {
      ++i;
      continue;
    }
    // Walk the declaration suffix looking for the body `{`.
    size_t body = SIZE_MAX;
    size_t k = close + 1;
    while (k < n && body == SIZE_MAX) {
      const Token& tok = t_[k];
      if (tok.pp) { ++k; continue; }
      if (tok.kind == Tk::kIdent) { ++k; continue; }  // const, noexcept, types
      if (tok.kind != Tk::kPunct) break;
      const std::string& x = tok.text;
      if (x == "{") { body = k; break; }
      if (x == "->" || x == "::" || x == "<" || x == ">" || x == "*" ||
          x == "&" || x == "&&") { ++k; continue; }
      if (x == "(" || x == "[") {  // noexcept(...), [[attributes]]
        const size_t m = Match(k);
        if (m == SIZE_MAX) break;
        k = m + 1;
        continue;
      }
      if (x == ":") {  // constructor initializer list
        ++k;
        while (k < n) {
          if (IsPunct(k, "(")) {
            const size_t m = Match(k);
            if (m == SIZE_MAX) break;
            k = m + 1;
          } else if (IsPunct(k, "{")) {
            // `member_{init}` braces follow an identifier; the body brace
            // follows `)` or `}` of the previous initializer.
            if (k > 0 && t_[k - 1].kind == Tk::kIdent) {
              const size_t m = Match(k);
              if (m == SIZE_MAX) break;
              k = m + 1;
            } else {
              body = k;
              break;
            }
          } else if (IsPunct(k, ";") || IsPunct(k, "}")) {
            break;
          } else {
            ++k;
          }
        }
        break;
      }
      break;  // `;` (declaration), `=`, `,`, operators: not a definition
    }
    if (body == SIZE_MAX) {
      i = close + 1;
      continue;
    }
    const size_t body_close = Match(body);
    if (body_close == SIZE_MAX) {
      i = body + 1;
      continue;
    }
    if (body_close > body + 1) ProcessFunction(body + 1, body_close - 1);
    i = body_close + 1;
  }
}

void Linter::CollectAssignments(size_t body_a, size_t body_b,
                                std::vector<AssignEvent>& events) const {
  static const char* kAssignOps[] = {"=",  "+=", "-=", "*=",  "/=", "%=",
                                     "&=", "|=", "^=", "<<=", ">>="};
  auto rhs_end = [&](size_t from) {
    int depth = 0;
    size_t j = from;
    for (; j <= body_b && j < t_.size(); ++j) {
      if (t_[j].kind != Tk::kPunct) continue;
      const std::string& x = t_[j].text;
      if (x == "(" || x == "[" || x == "{") ++depth;
      else if (x == ")" || x == "]" || x == "}") {
        if (depth == 0) break;
        --depth;
      } else if ((x == ";" || x == ",") && depth == 0) {
        break;
      }
    }
    return j;  // exclusive
  };
  for (size_t i = body_a; i <= body_b && i < t_.size(); ++i) {
    if (t_[i].pp) continue;
    const Token& tok = t_[i];
    if (tok.kind == Tk::kPunct && LW_IN_LIST(tok.text, kAssignOps)) {
      if (i > 0 && IsIdent(i - 1, "operator")) continue;
      // Find the base identifier of the lvalue chain (a.b[c] = x taints a).
      // The walk crosses subscript/call groups and member/scope connectors
      // only; a second identifier with no connector is a declaration's type
      // (`const std::uint64_t mask = ...` must bind `mask`, not `const`).
      size_t j = i;
      std::string base;
      bool expect_ident = true;
      while (j > body_a) {
        const Token& p = t_[j - 1];
        if (expect_ident) {
          if (p.kind == Tk::kIdent) {
            base = p.text;
            --j;
            expect_ident = false;
            continue;
          }
          if (p.kind == Tk::kPunct && (p.text == "]" || p.text == ")")) {
            const size_t open = Match(j - 1);
            if (open == SIZE_MAX) break;
            j = open;
            continue;
          }
          break;
        }
        if (p.kind == Tk::kPunct &&
            (p.text == "." || p.text == "->" || p.text == "::")) {
          --j;
          expect_ident = true;
          continue;
        }
        break;
      }
      if (base.empty()) continue;
      const size_t end = rhs_end(i + 1);
      if (end > i + 1) {
        events.push_back({tok.line, base, i + 1, end - 1});
      }
      continue;
    }
    if (tok.kind != Tk::kIdent) continue;
    // Range-for: `for (decl : container)` — the loop variable takes the
    // container's taint.
    if (tok.text == "for" && IsPunct(i + 1, "(")) {
      const size_t close = Match(i + 1);
      if (close == SIZE_MAX) continue;
      size_t colon = SIZE_MAX;
      int depth = 0;
      for (size_t j = i + 2; j < close; ++j) {
        if (t_[j].kind != Tk::kPunct) continue;
        const std::string& x = t_[j].text;
        if (x == "(" || x == "[" || x == "<") ++depth;
        else if (x == ")" || x == "]" || x == ">") --depth;
        else if (x == ";" && depth == 0) break;  // classic for
        else if (x == ":" && depth == 0) { colon = j; break; }
      }
      if (colon != SIZE_MAX && colon > i + 2 && colon + 1 < close) {
        std::string var;
        for (size_t j = i + 2; j < colon; ++j) {
          if (t_[j].kind == Tk::kIdent) var = t_[j].text;
        }
        if (!var.empty()) {
          events.push_back({tok.line, var, colon + 1, close - 1});
        }
      }
      continue;
    }
    // LW_ASSIGN_OR_RETURN(decl, expr): decl's last identifier gets expr's
    // taint.
    if (tok.text == "LW_ASSIGN_OR_RETURN" && IsPunct(i + 1, "(")) {
      const size_t close = Match(i + 1);
      if (close == SIZE_MAX) continue;
      size_t comma = SIZE_MAX;
      int depth = 0;
      for (size_t j = i + 2; j < close; ++j) {
        if (t_[j].kind != Tk::kPunct) continue;
        const std::string& x = t_[j].text;
        if (x == "(" || x == "[" || x == "{" || x == "<") ++depth;
        else if (x == ")" || x == "]" || x == "}" || x == ">") --depth;
        else if (x == "," && depth == 0) { comma = j; break; }
      }
      if (comma != SIZE_MAX && comma + 1 < close) {
        std::string var;
        for (size_t j = i + 2; j < comma; ++j) {
          if (t_[j].kind == Tk::kIdent) var = t_[j].text;
        }
        if (!var.empty()) {
          events.push_back({tok.line, var, comma + 1, close - 1});
        }
      }
      continue;
    }
    // Constructor-style declaration `Type name(init);`.
    if (i > body_a && IsPunct(i + 1, "(")) {
      const Token& prev = t_[i - 1];
      const bool type_before =
          (prev.kind == Tk::kIdent &&
           !LW_IN_LIST(prev.text, kNotFunctionNames) &&
           prev.text != "operator") ||
          (prev.kind == Tk::kPunct &&
           (prev.text == ">" || prev.text == "*" || prev.text == "&"));
      if (!type_before || LW_IN_LIST(tok.text, kNotFunctionNames)) continue;
      const size_t close = Match(i + 1);
      if (close != SIZE_MAX && close > i + 2 && IsPunct(close + 1, ";")) {
        events.push_back({tok.line, tok.text, i + 2, close - 1});
      }
    }
  }
}

bool Linter::DeclassifiedAt(int line) const {
  return Allowed(line, kSecretTaintDeclassify);
}

void Linter::ProcessFunction(size_t body_a, size_t body_b) {
  std::vector<AssignEvent> events;
  CollectAssignments(body_a, body_b, events);
  std::set<std::string> fn_tainted;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const AssignEvent& e : events) {
      if (fn_tainted.count(e.lhs) != 0) continue;
      if (!TaintedRange(e.rhs_a, e.rhs_b, fn_tainted)) continue;
      if (DeclassifiedAt(e.line)) {
        MarkUsed(e.line, kSecretTaintDeclassify);
        continue;
      }
      fn_tainted.insert(e.lhs);
      changed = true;
    }
  }
  CheckTaintSinks(body_a, body_b, fn_tainted);
}

void Linter::CheckTaintSinks(size_t body_a, size_t body_b,
                             const std::set<std::string>& fn_tainted) {
  auto tainted = [&](size_t a, size_t b) {
    return a <= b && TaintedRange(a, b, fn_tainted);
  };
  for (size_t i = body_a; i <= body_b && i < t_.size(); ++i) {
    if (t_[i].pp) continue;
    const Token& tok = t_[i];
    if (tok.kind == Tk::kIdent) {
      // Branch sinks: if/while/switch conditions and the middle clause of a
      // classic for. Range-for and ?: are not branch sinks (a ct-select is
      // the sanctioned way to use masks).
      if ((tok.text == "if" || tok.text == "while" ||
           tok.text == "switch") &&
          IsPunct(i + 1, "(")) {
        const size_t close = Match(i + 1);
        if (close != SIZE_MAX && close > i + 2 &&
            tainted(i + 2, close - 1)) {
          Report(tok.line, kTaintBranch,
                 "branch condition depends on secret-tainted data; the "
                 "taken path leaks the secret through timing — restructure "
                 "with lw::crypto::ct masks (Select/CondAssign), or "
                 "declassify with lwlint: allow(secret-taint)");
        }
        continue;
      }
      if (tok.text == "for" && IsPunct(i + 1, "(")) {
        const size_t close = Match(i + 1);
        if (close == SIZE_MAX) continue;
        size_t s1 = SIZE_MAX, s2 = SIZE_MAX;
        int depth = 0;
        for (size_t j = i + 2; j < close; ++j) {
          if (t_[j].kind != Tk::kPunct) continue;
          const std::string& x = t_[j].text;
          if (x == "(" || x == "[" || x == "{") ++depth;
          else if (x == ")" || x == "]" || x == "}") --depth;
          else if (x == ";" && depth == 0) {
            if (s1 == SIZE_MAX) s1 = j;
            else { s2 = j; break; }
          }
        }
        if (s1 != SIZE_MAX && s2 != SIZE_MAX && s2 > s1 + 1 &&
            tainted(s1 + 1, s2 - 1)) {
          Report(tok.line, kTaintBranch,
                 "loop condition depends on secret-tainted data; iteration "
                 "counts leak through timing — bound the loop by a public "
                 "size, or declassify with lwlint: allow(secret-taint)");
        }
        continue;
      }
      // Variable-time call sinks.
      if (IsPunct(i + 1, "(")) {
        bool var_time = false;
        if (LW_IN_LIST(tok.text, kVarTimeFree)) {
          var_time = true;
        } else if (LW_IN_LIST(tok.text, kVarTimeStd) && i >= 2 &&
                   IsPunct(i - 1, "::") && IsIdent(i - 2, "std")) {
          var_time = true;
        } else if (LW_IN_LIST(tok.text, kVarTimeMember) && i >= 1 &&
                   (IsPunct(i - 1, ".") || IsPunct(i - 1, "->"))) {
          var_time = true;
        }
        if (var_time) {
          const size_t close = Match(i + 1);
          if (close != SIZE_MAX && close > i + 2 &&
              tainted(i + 2, close - 1)) {
            Report(tok.line, kTaintCall,
                   "secret-tainted data passed to the variable-time "
                   "function '" + tok.text +
                       "'; its running time depends on the argument — use "
                       "lw::crypto::ct helpers (EqMask + a full scan), or "
                       "declassify with lwlint: allow(secret-taint)");
          }
        }
      }
      // Pointer arithmetic on a buffer base: `.data() + tainted`.
      if (tok.text == "data" && i >= 1 &&
          (IsPunct(i - 1, ".") || IsPunct(i - 1, "->")) &&
          IsPunct(i + 1, "(") && IsPunct(i + 2, ")") &&
          (IsPunct(i + 3, "+") || IsPunct(i + 3, "+="))) {
        size_t r = i + 3;
        while (r + 1 < t_.size()) {
          const Token& n = t_[r + 1];
          if (n.kind == Tk::kIdent || n.kind == Tk::kNumber) { ++r; continue; }
          if (n.kind == Tk::kPunct &&
              (n.text == "." || n.text == "->" || n.text == "::")) {
            ++r;
            continue;
          }
          if (n.kind == Tk::kPunct && (n.text == "(" || n.text == "[")) {
            const size_t close = Match(r + 1);
            if (close == SIZE_MAX) break;
            r = close;
            continue;
          }
          break;
        }
        if (r > i + 3 && tainted(i + 4, r)) {
          Report(t_[i + 3].line, kTaintIndex,
                 "pointer offset computed from secret-tainted data; the "
                 "address touched leaks through the cache — use a "
                 "constant-time scan, or declassify with lwlint: "
                 "allow(secret-taint)");
        }
      }
      continue;
    }
    // Index sinks: array subscripts with a tainted index expression.
    if (IsSubscript(i) && !secret_index_whitelisted_) {
      const size_t close = Match(i);
      if (close != SIZE_MAX && close > i + 1 && tainted(i + 1, close - 1)) {
        Report(tok.line, kTaintIndex,
               "array subscript computed from secret-tainted data; memory "
               "addresses leak through the cache — use a constant-time "
               "scan (ct::CondAssign over all slots), or declassify with "
               "lwlint: allow(secret-taint)");
      }
    }
  }
}

// ------------------------------------------------ stale allows

void Linter::CheckStaleAllows() {
  for (size_t i = 0; i < tf_.allow_sites.size(); ++i) {
    if (allow_used_[i]) continue;
    const AllowSite& site = tf_.allow_sites[i];
    // allow(stale-allow) hatches are consumed by the reports below, never
    // reported themselves — that way acknowledging a dead hatch is one
    // annotation, not an infinite regress.
    if (site.rule == kStaleAllow) continue;
    const std::string kind = site.whole_file ? "allowfile" : "allow";
    Report(site.line, kStaleAllow,
           "lwlint: " + kind + "(" + site.rule +
               ") suppresses no findings; stale escape hatches hide "
               "regressions — remove it (or fix the rule name)");
  }
}

// ------------------------------------------------ driver

std::vector<Finding> Linter::Run() {
  crypto_ = IsCryptoFile(path_);
  net_ = IsNetFile(path_);
  for (const char* wl : kSecretIndexWhitelist) {
    if (EndsWithPath(path_, wl)) secret_index_whitelisted_ = true;
  }
  allow_used_.assign(tf_.allow_sites.size(), false);
  ComputeMatches();
  ComputeSanitizedSpans();
  CollectSecretNames();
  ComputeGuardLines();

  CheckInsecureRand();
  CheckNakedNew();
  CheckMemcmp();
  CheckUncheckedResult();
  CheckUncheckedReader();
  CheckMetricLabel();
  if (!net_) CheckReceiveDeadline();
  if (net_ || path_.find("src/zltp/") != std::string::npos) {
    CheckRawSteadyClock();
  }
  if (net_) CheckBlockingInReactor();
  CheckSecretIndex();
  if (crypto_) {
    CheckCtEquality();
    CheckVarTimeLoops();
  }
  AnalyzeFunctions();
  CheckStaleAllows();

  std::sort(findings_.begin(), findings_.end(),
            [](const Finding& a, const Finding& b) {
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return std::move(findings_);
}

bool IsSourceFile(const std::filesystem::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cc" || ext == ".h" || ext == ".hpp" || ext == ".cpp";
}

}  // namespace

const std::vector<std::string>& AllRules() {
  static const std::vector<std::string> kRules = {
      kCtCompare,       kSecretIndex,     kTaintBranch,
      kTaintIndex,      kTaintCall,       kInsecureRand,
      kNakedNew,        kUncheckedResult, kUncheckedReader,
      kVarTimeLoop,     kMetricLabelFromRequest,
      kReceiveWithoutDeadline,            kRawSteadyClock,
      kBlockingInReactor,                 kStaleAllow,
  };
  return kRules;
}

std::vector<Finding> LintSource(const std::string& path,
                                const std::string& content) {
  const TokenizedFile tf = Tokenize(content);
  return Linter(path, tf).Run();
}

std::vector<Finding> LintPaths(const std::vector<std::string>& paths) {
  return LintPaths(paths, LintOptions{});
}

std::vector<Finding> LintPaths(const std::vector<std::string>& paths,
                               const LintOptions& options) {
  namespace fs = std::filesystem;
  std::vector<std::string> excludes = options.excludes;
  // The fixtures are deliberate true positives; linting them would make
  // every full-tree run fail by design.
  excludes.push_back("tools/lint/testdata");
  auto excluded = [&](const std::string& generic) {
    for (const std::string& e : excludes) {
      if (!e.empty() && generic.find(e) != std::string::npos) return true;
    }
    return false;
  };
  std::vector<Finding> findings;
  std::vector<fs::path> files;
  for (const std::string& p : paths) {
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
      for (const auto& entry : fs::recursive_directory_iterator(p, ec)) {
        if (entry.is_regular_file() && IsSourceFile(entry.path()) &&
            !excluded(entry.path().generic_string())) {
          files.push_back(entry.path());
        }
      }
    } else if (fs::is_regular_file(p, ec)) {
      if (!excluded(fs::path(p).generic_string())) files.push_back(p);
    } else {
      findings.push_back(Finding{p, 0, "io-error", "no such file or directory"});
    }
  }
  std::sort(files.begin(), files.end());
  for (const fs::path& file : files) {
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      findings.push_back(
          Finding{file.string(), 0, "io-error", "cannot open file"});
      continue;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    // Normalize the path so whitelists match regardless of invocation dir.
    const std::string display = file.generic_string();
    std::vector<Finding> file_findings = LintSource(display, ss.str());
    findings.insert(findings.end(),
                    std::make_move_iterator(file_findings.begin()),
                    std::make_move_iterator(file_findings.end()));
  }
  return findings;
}

std::string FormatFinding(const Finding& f) {
  std::ostringstream os;
  os << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message;
  return os.str();
}

namespace {

// GitHub workflow-command escaping: data escapes %, \r, \n; property values
// additionally escape : and , (the command's own delimiters).
std::string GhEscape(const std::string& s, bool property) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '%': out += "%25"; break;
      case '\r': out += "%0D"; break;
      case '\n': out += "%0A"; break;
      case ':': if (property) { out += "%3A"; break; } out += c; break;
      case ',': if (property) { out += "%2C"; break; } out += c; break;
      default: out += c;
    }
  }
  return out;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
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

}  // namespace

std::string FormatFindingGithub(const Finding& f) {
  std::ostringstream os;
  os << "::error file=" << GhEscape(f.file, true)
     << ",line=" << f.line << ",title=lwlint " << GhEscape(f.rule, true)
     << "::" << GhEscape(f.message, false);
  return os.str();
}

std::string FormatSarif(const std::vector<Finding>& findings) {
  std::set<std::string> rules;
  for (const Finding& f : findings) rules.insert(f.rule);
  std::ostringstream os;
  os << "{\"version\":\"2.1.0\","
     << "\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\","
     << "\"runs\":[{\"tool\":{\"driver\":{\"name\":\"lwlint\","
     << "\"informationUri\":\"docs/STATIC_ANALYSIS.md\",\"rules\":[";
  bool first = true;
  for (const std::string& r : rules) {
    if (!first) os << ",";
    first = false;
    os << "{\"id\":\"" << JsonEscape(r) << "\"}";
  }
  os << "]}},\"results\":[";
  first = true;
  for (const Finding& f : findings) {
    if (!first) os << ",";
    first = false;
    os << "{\"ruleId\":\"" << JsonEscape(f.rule) << "\","
       << "\"level\":\"error\","
       << "\"message\":{\"text\":\"" << JsonEscape(f.message) << "\"},"
       << "\"locations\":[{\"physicalLocation\":{"
       << "\"artifactLocation\":{\"uri\":\"" << JsonEscape(f.file) << "\"},"
       << "\"region\":{\"startLine\":" << std::max(1, f.line) << "}}}]}";
  }
  os << "]}]}";
  return os.str();
}

}  // namespace lw::lint
