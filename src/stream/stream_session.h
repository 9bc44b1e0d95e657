#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/grounder.h"
#include "src/core/nodeset.h"
#include "src/html/parser.h"
#include "src/html/tokenizer.h"
#include "src/runtime/runtime.h"
#include "src/stream/stream_types.h"
#include "src/telemetry/telemetry.h"
#include "src/tree/tree.h"
#include "src/util/result.h"

/// \file stream_session.h
/// Streaming incremental extraction: one wrap request whose page arrives in
/// chunks. Feed() pushes bytes through the same scanner and tree
/// construction the batch parser uses (html::Scanner, html::TreeConstructor
/// with this session's create/close hooks) and replays the wrapper's ground
/// plan — the one Wrap replays — incrementally over the growing tree
/// (core::IncrementalReplay): each node's creation and close are queued as
/// events that run the plan's EDB triggers, and Propagate pops them after
/// every chunk. Extraction results are emitted via StreamOptions::on_result
/// as soon as they are both derived and final, typically long before end of
/// input. Finish() settles the root, runs the last propagation and returns
/// the output XML, byte-identical to what batch WrapperRuntime::Wrap
/// produces on the concatenated bytes — for every input under every
/// chunking (the invariant the differential harness in tests/stream_test.cc
/// pins).
///
/// Fact finality is the load-bearing idea: the replay reads the tree only
/// through facts that can no longer change — label and links once a node
/// exists, leaf once it closed, lastsibling once its parent closed. Datalog
/// is monotone, so every pre-EOF derivation is sound — see grounder.h.
///
/// The one fact that is NOT known before end of input is the root: the batch
/// parser strips the synthetic "#document" node when it ends up with exactly
/// one top-level child, so `root` is node 1 (internal) for ordinary
/// single-rooted HTML and node 0 for multi-rooted fragments — and almost
/// every derivation chain starts at `root`. Waiting for EOF would kill
/// streaming. Instead the session keeps two replay states over the one
/// builder, one per hypothesis: the stripped world hides node 0 and takes
/// node 1 as the root (the batch tree with every id one higher), the kept
/// world is the builder as it stands. A result emits before EOF only when it
/// is derived in BOTH worlds and its subtree is closed — sound whichever way
/// the input ends. The hypothesis resolves the moment a second top-level
/// node arrives (kept) or at Finish (stripped); the loser is discarded and
/// the winner's remaining closed derivations flush.
///
/// Every wrapper streams this way, Elog⁻Δ included. A Δ builtin is a fact
/// about the finished tree, so Finish hands the winner the end of input as
/// one more final fact: the rules that read a builtin derive then, and
/// their results emit at Finish, while the wrapper's Δ-free rules stream.

namespace mdatalog::stream {

class StreamSession {
 public:
  /// `program` is a compiled wrapper from the runtime's program cache;
  /// `project_attr` mirrors WrapperHandle::project_attr (Remark 2.2
  /// attribute projection, applied to labels as nodes are created).
  /// `request` carries the deadline / cancel token; both the tokenizer and
  /// the propagation poll it. `telemetry`, when non-null (the runtime
  /// passes its own bundle), traces the session ("stream" kind: one
  /// stream.feed span per chunk, stream.propagate per propagation,
  /// stream.finish) and books the session's peak gauges at termination; it
  /// must outlive the session. request.trace overrides the sampling policy
  /// exactly as in Wrap.
  StreamSession(std::shared_ptr<const runtime::CompiledWrapperProgram> program,
                std::string project_attr, StreamOptions options,
                runtime::RequestOptions request = {},
                telemetry::Telemetry* telemetry = nullptr);

  StreamSession(const StreamSession&) = delete;
  StreamSession& operator=(const StreamSession&) = delete;

  /// Releases the session's hold on a caller-owned trace
  /// (TraceContext::inflight_requests — the trace must outlive the session,
  /// asserted by the trace's destructor in debug builds).
  ~StreamSession();

  /// Consumes the next chunk of the page. Chunk boundaries are arbitrary —
  /// mid-tag, mid-attribute, mid-entity, one byte at a time — and never
  /// observable in the results. On error (deadline, cancellation) the
  /// session is dead: every later call returns the same status.
  util::Status Feed(std::string_view chunk);

  /// Ends the input, runs evaluation to fixpoint, emits any still-pending
  /// results and returns the output XML — byte-identical to batch Wrap on
  /// the full page. Calling Feed or Finish afterwards fails.
  util::Result<std::string> Finish();

  /// Whether the synthetic "#document" root was stripped from the output
  /// tree (final ids = internal ids - 1). Meaningful once the second
  /// top-level node arrives (false from then on) or after Finish.
  bool stripped() const { return stripped_; }
  /// Bytes held back by the scanner waiting for a construct to complete
  /// (bounded by the longest tag/comment/script body, not the page).
  size_t buffered_bytes() const { return scanner_.buffered_bytes(); }

  /// Bounded-memory observability: the largest number of simultaneously
  /// open (subtree-incomplete) nodes the session has held. Open nodes are
  /// the part of the tree whose EDB facts are still pending — for
  /// well-formed input this tracks nesting depth, not page length.
  int64_t peak_live_nodes() const { return peak_live_nodes_; }
  /// Peak ApproxBytes of the session's replay states (both hypothesis
  /// worlds while both are live; the Δ builtin tables from Finish on).
  int64_t peak_edb_bytes() const { return peak_edb_bytes_; }

 private:
  /// Terminal-state bookkeeping: latches the first non-OK status and fires
  /// on_finish exactly once (also on successful Finish, with OK).
  util::Status Terminal(util::Status status);
  util::Status CheckLive();

  /// Feed/Finish bodies; the public wrappers install the trace scope and
  /// settle the session trace after every span has unwound (the trace must
  /// not be finished while a stack span still points into it).
  util::Status FeedImpl(std::string_view chunk);
  util::Result<std::string> FinishImpl();
  /// After Terminal fired: books the peak gauges and finishes (owned) or
  /// closes (caller-owned) the session trace. Idempotent.
  void SettleSessionTrace();
  /// The session's trace: the caller-owned one from RequestOptions::trace,
  /// or the sampled one the session started. May be null.
  telemetry::TraceContext* cur_trace() const {
    return external_trace_ != nullptr ? external_trace_ : trace_.get();
  }
  void UpdateEdbPeak();

  /// Tree-construction hooks: node `n` was just created (its label already
  /// projected, Remark 2.2) / its subtree is complete.
  struct ConstructionHooks {
    StreamSession* session;
    void OnCreate(tree::NodeId n, std::span<const html::AttrView> /*attrs*/) {
      session->CreateNode(n);
    }
    void OnClose(tree::NodeId n) { session->CloseNode(n); }
  };

  void CreateNode(tree::NodeId n);
  void CloseNode(tree::NodeId n);
  const tree::TreeBuilder& builder() const { return constructor_.builder(); }
  /// Second top-level node arrived: the root is definitely kept. Drops the
  /// stripped world and flushes everything the kept world has already
  /// derived on closed subtrees.
  void ResolveKept();
  /// Emits (pattern predicate `pi`, node) if it is derived in the worlds the
  /// current hypothesis state requires, its subtree is closed, and it has
  /// not emitted yet.
  void MaybeEmit(size_t pi, tree::NodeId node);
  /// Re-examines every node a live world derived a pattern for, in
  /// ascending order — called when the hypothesis resolves and the emission
  /// criterion relaxes.
  void FlushEligible();
  /// MaybeEmit for every pattern atom the live worlds derived since the
  /// last call, in document order.
  void EmitDerived();
  void EmitResult(int32_t pattern_index, tree::NodeId node);
  util::Status PropagateAll();
  /// Points every PatternPred::derived at the live worlds' sets.
  void BindPatternSets();
  /// The live worlds; null entries for the dropped ones.
  std::array<core::IncrementalReplay*, 2> worlds() const {
    return {stripped_world_.get(), kept_world_.get()};
  }

  const util::EvalControl* control() const {
    return control_.unbounded() ? nullptr : &control_;
  }

  const std::shared_ptr<const runtime::CompiledWrapperProgram> program_;
  const std::string project_attr_;
  const StreamOptions options_;
  const runtime::RequestOptions request_;  // keeps the cancel token alive
  const util::EvalControl control_;

  html::Scanner scanner_;
  html::TreeConstructor<ConstructionHooks> constructor_;
  std::vector<uint8_t> closed_;  // per node: subtree complete

  /// The two hypothesis worlds; the loser is reset at resolution.
  std::unique_ptr<core::IncrementalReplay> stripped_world_;
  std::unique_ptr<core::IncrementalReplay> kept_world_;
  /// One entry per distinct pattern predicate, in ascending PredId order.
  struct PatternPred {
    core::PredId pred;
    std::vector<int32_t> patterns;  // indices into extraction_patterns
    /// Its derived sets in the stripped and the kept world (null once that
    /// world is dropped): worlds() order.
    std::array<const core::NodeSet*, 2> derived{};
    core::NodeSet emitted;  // nodes already emitted, grown on demand
  };
  std::vector<PatternPred> pattern_preds_;
  std::vector<std::pair<core::PredId, tree::NodeId>> fresh_;  // EmitDerived

  bool settled_ = false;   // true once a second top-level node exists (kept)
  bool stripped_ = false;  // decided at Finish when still unsettled
  bool finished_ = false;
  bool terminal_ = false;  // on_finish fired
  util::Status status_;    // first error, latched

  telemetry::Telemetry* const telemetry_;            // may be null
  telemetry::TraceContext* const external_trace_;    // caller-owned, may be null
  std::unique_ptr<telemetry::TraceContext> trace_;   // owned, may be null
  int64_t bytes_fed_ = 0;
  int64_t live_nodes_ = 0;
  int64_t peak_live_nodes_ = 0;
  int64_t peak_edb_bytes_ = 0;
};

}  // namespace mdatalog::stream
