#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/html/parser.h"
#include "src/html/tokenizer.h"
#include "src/runtime/runtime.h"
#include "src/stream/incremental_eval.h"
#include "src/stream/stream_types.h"
#include "src/telemetry/telemetry.h"
#include "src/tree/tree.h"
#include "src/util/result.h"

/// \file stream_session.h
/// Streaming incremental extraction: one wrap request whose page arrives in
/// chunks. Feed() pushes bytes through the same scanner and tree
/// construction the batch parser uses (html::Scanner, html::TreeConstructor
/// with this session's create/close hooks), asserts EDB facts the moment
/// they become finally true, and runs semi-naive delta rounds over the
/// compiled TMNF program — extraction results are emitted via
/// StreamOptions::on_result as soon as they are both derived and final,
/// typically long before end of input. Finish() settles
/// the root, runs the last delta round and returns the output XML, byte-
/// identical to what batch WrapperRuntime::Wrap produces on the concatenated
/// bytes — for every input under every chunking (the invariant the
/// differential harness in tests/stream_test.cc pins).
///
/// Fact finality is the load-bearing idea: label and structure links are
/// asserted at node creation, leaf/lastsibling/lastchild when the element
/// closes. The EDB is therefore insert-only, datalog is monotone, and every
/// pre-EOF derivation is sound — see incremental_eval.h.
///
/// The one fact that is NOT known before end of input is the root: the batch
/// parser strips the synthetic "#document" node when it ends up with exactly
/// one top-level child, so `root` is node 1 (internal) for ordinary
/// single-rooted HTML and node 0 for multi-rooted fragments — and almost
/// every derivation chain starts at `root`. Waiting for EOF would kill
/// streaming. Instead the session runs the SAME insert-only evaluator under
/// BOTH hypotheses: one asserts root(1) and no node-0 fact at all (the
/// stripped world, where the asserted structure is the batch EDB shifted up
/// by one and constant-free rules carry derivations across the isomorphism),
/// the other asserts root(0), label_#document(0) and the node-0 links
/// incrementally (the kept world). A result emits before EOF only when it is
/// derived under BOTH hypotheses and its subtree is closed — sound whichever
/// way the input ends. The hypothesis resolves the moment a second top-level
/// node arrives (kept) or at Finish (stripped); the loser is discarded and
/// the winner's remaining closed derivations flush.
///
/// Programs without a TMNF program (Elog⁻Δ builtins) degrade gracefully:
/// the session still parses incrementally but replays the wrapper's ground
/// plan at Finish (streaming() == false); results then all emit at Finish.

namespace mdatalog::stream {

class StreamSession {
 public:
  /// `program` is a compiled wrapper from the runtime's program cache;
  /// `project_attr` mirrors WrapperHandle::project_attr (Remark 2.2
  /// attribute projection, applied to labels as nodes are created).
  /// `request` carries the deadline / cancel token; both the tokenizer and
  /// the delta rounds poll it. `telemetry`, when non-null (the runtime
  /// passes its own bundle), traces the session ("stream" kind: one
  /// stream.feed span per chunk, stream.propagate per delta round batch,
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

  /// True when the program compiled for incremental evaluation (results can
  /// emit before Finish); false = parse-only streaming with batch evaluation
  /// at Finish.
  bool streaming() const { return incremental_; }
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
  /// Peak ApproxBytes across the session's incremental evaluators (both
  /// hypothesis worlds while both are live). 0 for non-incremental sessions.
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
  /// stripped-hypothesis evaluator and flushes everything the kept world has
  /// already derived on closed subtrees.
  void ResolveKept();
  /// Emits (pattern pred, node) if it is derivation-eligible under the
  /// current hypothesis state, its subtree is closed, and it has not emitted
  /// yet.
  void MaybeEmit(core::PredId pred, tree::NodeId node);
  /// Re-examines every recorded derivation — called when the hypothesis
  /// resolves and the emission criterion relaxes.
  void FlushEligible();
  void EmitResult(int32_t pattern_index, tree::NodeId node);
  util::Status PropagateAll();

  const util::EvalControl* control() const {
    return control_.unbounded() ? nullptr : &control_;
  }
  static void AssertUnary(IncrementalTmnfEval* ev, core::PredId pred,
                          tree::NodeId n) {
    if (pred >= 0) ev->AddUnaryFact(pred, n);
  }
  static void AssertBinary(IncrementalTmnfEval* ev, core::PredId pred,
                           tree::NodeId a, tree::NodeId b) {
    if (pred >= 0) ev->AddBinaryFact(pred, a, b);
  }
  /// The label_<l> predicate of node n's label, or -1.
  core::PredId LabelPred(tree::NodeId n);
  void AssertChildK(IncrementalTmnfEval* ev, int32_t k, tree::NodeId parent,
                    tree::NodeId child);

  const std::shared_ptr<const runtime::CompiledWrapperProgram> program_;
  const std::string project_attr_;
  const StreamOptions options_;
  const runtime::RequestOptions request_;  // keeps the cancel token alive
  const util::EvalControl control_;

  html::Scanner scanner_;
  html::TreeConstructor<ConstructionHooks> constructor_;
  std::vector<int32_t> num_children_;  // per node, grows with the tree
  std::vector<bool> closed_;           // per node: subtree complete

  /// The two hypothesis worlds, both engaged when the program's TMNF
  /// compiled for incremental evaluation; the loser is reset at resolution.
  std::unique_ptr<IncrementalTmnfEval> eval_stripped_;
  std::unique_ptr<IncrementalTmnfEval> eval_kept_;
  bool incremental_ = false;
  // EDB predicate ids in program_->tmnf (-1 = the program never reads it).
  core::PredId root_pred_ = -1, leaf_pred_ = -1;
  core::PredId lastsibling_pred_ = -1, firstsibling_pred_ = -1;
  core::PredId firstchild_pred_ = -1, nextsibling_pred_ = -1;
  core::PredId child_pred_ = -1, lastchild_pred_ = -1;
  std::unordered_map<std::string, core::PredId> label_preds_;
  /// label_preds_ by the tree's label id, resolved on first sight
  /// (kUnresolved until then).
  std::vector<core::PredId> label_pred_of_id_;
  std::unordered_map<int32_t, core::PredId> childk_preds_;
  /// pattern pred → indices into prepared.extraction_patterns.
  std::unordered_map<core::PredId, std::vector<int32_t>> pred_patterns_;
  std::vector<core::PredId> pattern_pred_list_;
  /// Per (pattern pred, node): bit 0 = derived in the stripped world, bit 1
  /// = derived in the kept world, bit 2 = already emitted.
  std::unordered_map<uint64_t, uint8_t> derived_;

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
