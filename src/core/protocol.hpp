#pragma once

/// \file protocol.hpp
/// Line-oriented wire protocol between a tunable application and the Harmony
/// tuning server (paper Fig. 1). One message per line, space-separated
/// fields; enum labels therefore must not contain whitespace.
///
/// Client -> server:
///   HELLO <app-name>
///   PARAM INT <name> <lo> <hi> <step>
///   PARAM REAL <name> <lo> <hi>
///   PARAM ENUM <name> <choice1,choice2,...>
///   STRATEGY                  -> "OK <name1> <name2> ..." (the registry's
///                                strategy names; valid any time)
///   STRATEGY <name> [k=v ...] -> choose the search strategy and its options
///                                for this session (before START; default is
///                                nelder-mead). Bad names/options get ERR
///                                with the registry's message.
///   START <max_iterations>
///   FETCH
///   REPORT <objective>
///   REPORT+FETCH <objective>  -> REPORT the pending candidate and FETCH the
///                                next one in a single exchange; the reply is
///                                the FETCH reply (CONFIG/DONE). Halves the
///                                per-evaluation round-trip cost.
///   BEST
///   BYE
///
/// Multi-tenancy (optional):
///   TENANT <name>             -> "OK tenant <name>". Declares which tenant
///                                this session bills to (before START; at
///                                most once; name <= 64 chars). When the
///                                server enforces a per-tenant session quota
///                                and it is full, the reply is
///                                "ERR retry-after <seconds> ..." and the
///                                connection is closed — a graceful shed
///                                telling the client when to come back.
///                                Sessions that never send TENANT are
///                                unconstrained and unattributed.
///
/// Clients may pipeline: any number of verbs can be written before reading
/// the replies, and the server answers strictly in request order (one reply
/// block per verb). The steady-state tuning loop therefore costs one round
/// trip per evaluation (REPORT+FETCH), and setup (HELLO..START) can ride in
/// a single write.
///
/// Distributed tracing (optional, fully backward compatible): FETCH, REPORT,
/// REPORT+FETCH, WORK and RESULT accept one extra trailing token of the form
///   T=<trace-hex>-<span-hex>
/// carrying a TraceContext (64-bit ids, lowercase hex). A sampled request's
/// spans on both sides of the wire share the trace id, and the receiver
/// treats the sender's span id as the parent span. An absent token means the
/// request is unsampled and every tracing call site is skipped — old clients
/// and servers interoperate unchanged, and replies never carry the token.
///
/// Worker (fleet) verbs — a connection that sends ATTACH becomes an
/// evaluation worker channel instead of a tuning session (requires the
/// server to be wired to a WorkSink dispatcher; see work_sink.hpp):
///   ATTACH <name> [capacity]  -> "OK worker <id>". The connection switches
///                                to message passing: the server may push a
///                                WORK line at any time (up to `capacity` in
///                                flight, default 1), and RESULT lines are
///                                not acknowledged.
///   RESULT <id> <objective> [cost_s]
///                             -> measurement for WORK item <id>; no reply.
///   RESULT <id> FAIL          -> the configuration failed to run; no reply.
///   PING                      -> "PONG"; refreshes the worker's heartbeat.
///   DETACH                    -> "OK detached"; in-flight work re-dispatches.
///
/// Server -> worker:
///   WORK <id> <v1> <v2> ...   (positional fields, like CONFIG, against the
///                              worker's compiled-in substrate space)
///
/// Introspection verbs (valid on any connection, any time — an admin client
/// such as examples/harmony_top polls them against a live server):
///   STATUS                    -> one line of JSON: the StatusRegistry
///                                snapshot (every active session with its
///                                current best, plus pool worker lanes)
///   METRICS                   -> the MetricsRegistry in Prometheus text
///                                exposition format, terminated by a
///                                "# EOF" comment line
///   LOG [tail] [N]            -> "LOG <n>" then n structured EventLog
///                                records as JSON lines (default N = 20)
///
/// Server -> client:
///   OK [detail]
///   CONFIG <v1> <v2> ...      (positional, matching PARAM registration order)
///   DONE                      (search converged; FETCH/BEST return incumbent)
///   ERR <message>

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/param_space.hpp"
#include "core/types.hpp"
#include "obs/trace.hpp"

namespace harmony::proto {

/// Zero-copy view of one parsed line: verb and argument fields are
/// string_views into the caller's buffer, and the args vector is reused
/// across lines, so steady-state tokenization performs no heap allocations.
/// The views are only valid while the tokenized line's storage is.
struct MessageView {
  std::string_view verb;
  std::vector<std::string_view> args;
};

/// Tokenize `line` into `out`, reusing out.args' capacity. Returns false for
/// empty/whitespace-only lines (out is cleared either way).
[[nodiscard]] bool parse_line(std::string_view line, MessageView& out);

/// Strict integer / floating-point field parsers: the whole field must be
/// consumed. Used by the protocol itself and by server verb handlers.
[[nodiscard]] std::optional<std::int64_t> parse_i64(std::string_view s);
[[nodiscard]] std::optional<double> parse_f64(std::string_view s);

/// Encode a configuration as the argument list of a CONFIG message. REAL
/// values use "%.17g", so they decode to the same double bit for bit.
[[nodiscard]] std::string encode_config(const ParamSpace& space, const Config& c);

/// Append-into-buffer variant for hot paths: appends the encoded fields to
/// `out` without intermediate strings (reuse `out`'s capacity across calls).
void encode_config(const ParamSpace& space, const Config& c, std::string& out);

/// Decode the args of a tokenized CONFIG line against a parameter space,
/// ignoring the first `skip` args (the worker side of a WORK line decodes
/// the fields after the work id). Returns nullopt when the field count or
/// any field fails to parse/validate.
[[nodiscard]] std::optional<Config> decode_config(const ParamSpace& space,
                                                  const MessageView& m,
                                                  std::size_t skip = 0);

/// Append one complete "WORK <id> <fields>\n" line to `out` (hot-path,
/// allocation-free once `out` has capacity).
void encode_work(const ParamSpace& space, std::uint64_t work_id, const Config& c,
                 std::string& out);

/// True when a field is a trace-context token ("T=..."); the cheap test verb
/// handlers use before attempting a full parse. Allocation-free.
[[nodiscard]] bool is_trace_token(std::string_view field) noexcept;

/// Parse a "T=<trace-hex>-<span-hex>" token. Returns nullopt unless both ids
/// are valid non-empty hex and the trace id is non-zero. Allocation-free.
[[nodiscard]] std::optional<obs::TraceContext> parse_trace(std::string_view field) noexcept;

/// Append " T=<trace>-<span>" (note the leading separator) to `out` —
/// allocation-free once `out` has capacity. No-op for unsampled contexts.
void append_trace(const obs::TraceContext& ctx, std::string& out);

/// Build a PARAM registration line for a parameter.
[[nodiscard]] std::string encode_param(const Parameter& p);

/// Parse a tokenized PARAM line's arguments (everything after the verb)
/// into a Parameter. Returns nullopt on malformed input.
[[nodiscard]] std::optional<Parameter> decode_param(const MessageView& m);

}  // namespace harmony::proto
