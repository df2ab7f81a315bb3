// lwlint — project-specific static checks for the Lightweb tree.
//
// The linter enforces the security idioms the compiler cannot see (see
// docs/STATIC_ANALYSIS.md for the policy rationale). Since PR 6 the core is
// a token-stream engine with an intra-procedural secret-taint dataflow
// analysis, not per-line regexes: sources are `LW_SECRET`-annotated
// declarations (src/crypto/secret.h) plus secret-name heuristics in
// src/crypto; sanitizers are the lw::crypto::ct helpers and explicit
// declassification; sinks are branches, array subscripts, pointer
// arithmetic, and variable-time library calls.
//
//   ct-compare       memcmp/==/!= on key or tag material; secrets must be
//                    compared with lw::crypto::ct::Eq / EqMask.
//   secret-index     array access indexed by secret-named data anywhere, or
//                    nested data-dependent table lookups (tbl[x[i]]) inside
//                    src/crypto, outside the whitelisted files.
//   secret-taint-branch
//                    if/while/for/switch condition depends on a value the
//                    taint engine traced back to a secret source.
//   secret-taint-index
//                    array subscript or pointer offset computed from a
//                    taint-traced secret (cache side channel).
//   secret-taint-call
//                    taint-traced secret passed to a curated variable-time
//                    function (memcmp/strcmp/std::find/.find/.count/...).
//   insecure-rand    rand()/srand()/std::rand and friends; use lw::Rng for
//                    simulation and lw::SecureRandom for secrets.
//   naked-new        naked new/delete; use std::make_unique or containers.
//   unchecked-result lw::Result<T> unwrapped with .value() with no visible
//                    ok() check / LW_CHECK / assertion nearby.
//   unchecked-reader Reader decode results (U8/U16/U32/U64/Raw/
//                    LengthPrefixed/String) dereferenced in the same
//                    expression or discarded without a status check; a
//                    truncated frame must surface as ProtocolError, never
//                    as silently-wrong data — see docs/FUZZING.md.
//   var-time-loop    early exits (break/return) or secret-dependent bounds
//                    in loops inside src/crypto.
//   metric-label-from-request
//                    metric names/labels built from request-derived data;
//                    telemetry must be aggregate-only (literal names).
//   receive-without-deadline
//                    Transport::Receive() with no deadline argument outside
//                    src/net; unbounded reads must name Deadline::Infinite()
//                    explicitly (or carry an allow for the batcher
//                    long-poll) — see docs/ROBUSTNESS.md.
//   raw-steady-clock std::chrono::steady_clock::now() in src/zltp or
//                    src/net; scheduling code must read time through the
//                    injectable lw::Clock (trace stamps through
//                    obs::TraceNow()) so FakeClock tests drive deadlines
//                    and batch closes deterministically.
//   blocking-in-reactor
//                    bare accept()/recv()/send() syscalls in src/net; the
//                    epoll reactor's loop thread owns every connection
//                    there, so kernel blocking stalls all of them — use
//                    accept4(SOCK_NONBLOCK) and MSG_DONTWAIT. The
//                    client-side TcpTransport (tcp.cc) blocks by design
//                    and carries allow hatches.
//   stale-allow      an allow/allowfile annotation that suppressed nothing;
//                    dead escape hatches hide real regressions, so they are
//                    findings themselves.
//
// Escape hatch: an allow(rule) comment — the word `lwlint`, a colon, then
// allow(rule), comma-separate several rules — on the offending line or the
// line directly above suppresses the finding; allowfile(rule) in the same
// comment form anywhere in a file suppresses the rule for the whole file.
// The pseudo-rule allow(secret-taint) declassifies: placed on an
// assignment it stops taint from propagating through that assignment.
// Every allow should come with a justification comment; an allow that
// suppresses nothing is reported as stale-allow.
#pragma once

#include <string>
#include <vector>

namespace lw::lint {

struct Finding {
  std::string file;
  int line = 0;  // 1-based
  std::string rule;
  std::string message;
};

// Names of all rules, for --list-rules and the self-tests.
const std::vector<std::string>& AllRules();

// Lints one translation unit. `path` (repo-relative or absolute) decides
// which rule subsets apply: crypto-only rules fire for paths containing
// "src/crypto", and whitelisted files are matched by path suffix.
std::vector<Finding> LintSource(const std::string& path,
                                const std::string& content);

struct LintOptions {
  // Path substrings to skip while walking directories. The lint fixtures
  // (tools/lint/testdata) are always skipped: they are deliberate true
  // positives.
  std::vector<std::string> excludes;
};

// Recursively lints every .cc/.h file under each of `paths` (files are
// accepted too). I/O problems are reported as findings with rule "io-error".
std::vector<Finding> LintPaths(const std::vector<std::string>& paths);
std::vector<Finding> LintPaths(const std::vector<std::string>& paths,
                               const LintOptions& options);

// "file:line: [rule] message" — matches compiler diagnostics so editors can
// jump to findings.
std::string FormatFinding(const Finding& f);

// GitHub Actions workflow-command form, one line per finding:
//   ::error file=F,line=N,title=lwlint RULE::MESSAGE
// so findings annotate the diff inline on PRs.
std::string FormatFindingGithub(const Finding& f);

// Minimal SARIF 2.1.0 document covering all findings (one run, one result
// per finding), for code-scanning upload.
std::string FormatSarif(const std::vector<Finding>& findings);

}  // namespace lw::lint
