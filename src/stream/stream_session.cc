#include "src/stream/stream_session.h"

#include <algorithm>

#include "src/core/database.h"
#include "src/elog/eval.h"
#include "src/html/parser.h"
#include "src/tree/serialize.h"
#include "src/util/check.h"
#include "src/wrapper/wrapper.h"

namespace mdatalog::stream {

namespace {

/// Document-order subtree text over a partially-built tree; must concatenate
/// exactly like Tree::SubtreeText (preorder) so emitted texts match what the
/// finished tree reports. Iterative: fuzzed inputs nest arbitrarily deep.
std::string SubtreeTextOf(const tree::TreeBuilder& b, tree::NodeId n) {
  std::string out;
  std::vector<tree::NodeId> stack = {n};
  while (!stack.empty()) {
    const tree::NodeId m = stack.back();
    stack.pop_back();
    out += b.text(m);
    // Preorder via a LIFO stack: children push right-to-left.
    std::vector<tree::NodeId> children;
    for (tree::NodeId c = b.first_child(m); c != tree::kNoNode;
         c = b.next_sibling(c)) {
      children.push_back(c);
    }
    stack.insert(stack.end(), children.rbegin(), children.rend());
  }
  return out;
}

core::PredId EdbPred(const core::PredicateTable& preds,
                     const std::vector<bool>& intensional,
                     std::string_view name, int32_t arity) {
  const core::PredId p = preds.Find(name);
  if (p < 0 || preds.Arity(p) != arity || intensional[p]) return -1;
  return p;
}

uint64_t DerivedKey(core::PredId pred, tree::NodeId node) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(pred)) << 32) |
         static_cast<uint32_t>(node);
}

constexpr uint8_t kInStripped = 1;
constexpr uint8_t kInKept = 2;
constexpr uint8_t kEmitted = 4;

constexpr core::PredId kUnresolved = -2;

}  // namespace

StreamSession::StreamSession(
    std::shared_ptr<const runtime::CompiledWrapperProgram> program,
    std::string project_attr, StreamOptions options,
    runtime::RequestOptions request, telemetry::Telemetry* telemetry)
    : program_(std::move(program)),
      project_attr_(std::move(project_attr)),
      options_(std::move(options)),
      request_(std::move(request)),
      control_(request_.deadline, request_.cancel.get()),
      constructor_(project_attr_, ConstructionHooks{this}),
      telemetry_(telemetry),
      external_trace_(request_.trace) {
  MD_CHECK(program_ != nullptr);
  if (external_trace_ != nullptr) {
    // The session records into the caller's trace for its whole lifetime;
    // hold it inflight so destroying the trace first trips the debug assert
    // instead of a use-after-free.
    external_trace_->AddInflightRequest();
  } else if (telemetry_ != nullptr) {
    trace_ = telemetry_->StartTrace("stream");
  }
  if (program_->has_tmnf) {
    eval_stripped_ = IncrementalTmnfEval::Compile(program_->tmnf);
  }
  incremental_ = eval_stripped_ != nullptr;
  if (incremental_) {
    eval_kept_ = IncrementalTmnfEval::Compile(program_->tmnf);
    MD_CHECK(eval_kept_ != nullptr);  // same program, same outcome

    const core::PredicateTable& preds = program_->tmnf.preds();
    const std::vector<bool> intensional = program_->tmnf.IntensionalMask();
    root_pred_ = EdbPred(preds, intensional, "root", 1);
    leaf_pred_ = EdbPred(preds, intensional, "leaf", 1);
    lastsibling_pred_ = EdbPred(preds, intensional, "lastsibling", 1);
    firstsibling_pred_ = EdbPred(preds, intensional, "firstsibling", 1);
    firstchild_pred_ = EdbPred(preds, intensional, "firstchild", 2);
    nextsibling_pred_ = EdbPred(preds, intensional, "nextsibling", 2);
    child_pred_ = EdbPred(preds, intensional, "child", 2);
    lastchild_pred_ = EdbPred(preds, intensional, "lastchild", 2);
    for (core::PredId p = 0; p < preds.size(); ++p) {
      if (intensional[p]) continue;
      const std::string& name = preds.Name(p);
      if (preds.Arity(p) == 1) {
        const std::string label = core::LabelFromPredName(name);
        if (!label.empty()) label_preds_.emplace(label, p);
      } else if (preds.Arity(p) == 2) {
        const int32_t k = core::ChildKIndex(name);
        if (k >= 1) childk_preds_.emplace(k, p);
      }
    }
    const auto& patterns = program_->prepared.extraction_patterns;
    for (size_t i = 0; i < patterns.size(); ++i) {
      const core::PredId p = program_->pattern_preds[i];
      if (p < 0) continue;
      if (pred_patterns_.find(p) == pred_patterns_.end()) {
        pattern_pred_list_.push_back(p);
      }
      pred_patterns_[p].push_back(static_cast<int32_t>(i));
    }
    eval_stripped_->SetDeriveHook(pattern_pred_list_,
                                  [this](core::PredId pred, int32_t node) {
                                    derived_[DerivedKey(pred, node)] |=
                                        kInStripped;
                                    MaybeEmit(pred, node);
                                  });
    eval_kept_->SetDeriveHook(pattern_pred_list_,
                              [this](core::PredId pred, int32_t node) {
                                derived_[DerivedKey(pred, node)] |= kInKept;
                                MaybeEmit(pred, node);
                              });
  }
  // The synthetic root the constructor starts with: whether it survives
  // into the output tree is settled at end of input. Until then the two
  // evaluators disagree about it by design: the kept world knows everything
  // about node 0 up front, the stripped world never hears of it (node 0
  // enters its domain factless and linkless, so no derivation can ever
  // touch it).
  num_children_.push_back(0);
  closed_.push_back(false);
  if (incremental_) {
    eval_stripped_->AddNode(0, -1);
    eval_kept_->AddNode(0, -1);
    AssertUnary(eval_kept_.get(), root_pred_, 0);
    AssertUnary(eval_kept_.get(), LabelPred(0), 0);
  }
}

StreamSession::~StreamSession() {
  if (external_trace_ != nullptr) {
    external_trace_->ReleaseInflightRequest();
  }
}

util::Status StreamSession::Terminal(util::Status status) {
  if (!status.ok() && status_.ok()) status_ = status;
  if (!terminal_) {
    terminal_ = true;
    if (options_.on_finish) options_.on_finish(status);
  }
  return status;
}

util::Status StreamSession::CheckLive() {
  if (!status_.ok()) return status_;
  if (finished_) {
    return util::Status::FailedPrecondition(
        "stream session already finished");
  }
  if (!control_.unbounded()) {
    util::Status s = control_.Check();
    if (!s.ok()) return Terminal(std::move(s));
  }
  return util::Status::OK();
}

util::Status StreamSession::PropagateAll() {
  telemetry::TraceSpan span(cur_trace(), "stream.propagate");
  int64_t facts_before = 0;
  if (span) {
    for (IncrementalTmnfEval* ev : {eval_stripped_.get(), eval_kept_.get()}) {
      if (ev != nullptr) facts_before += ev->num_facts();
    }
  }
  for (IncrementalTmnfEval* ev : {eval_stripped_.get(), eval_kept_.get()}) {
    if (ev != nullptr) MD_RETURN_NOT_OK(ev->Propagate(control()));
  }
  if (span) {
    int64_t facts_after = 0;
    for (IncrementalTmnfEval* ev : {eval_stripped_.get(), eval_kept_.get()}) {
      if (ev != nullptr) facts_after += ev->num_facts();
    }
    span.Value("delta", facts_after - facts_before);
  }
  return util::Status::OK();
}

void StreamSession::UpdateEdbPeak() {
  int64_t bytes = 0;
  for (IncrementalTmnfEval* ev : {eval_stripped_.get(), eval_kept_.get()}) {
    if (ev != nullptr) bytes += ev->ApproxBytes();
  }
  peak_edb_bytes_ = std::max(peak_edb_bytes_, bytes);
}

void StreamSession::SettleSessionTrace() {
  if (!terminal_) return;
  if (telemetry_ != nullptr) {
    // The peaks survive the session as registry gauges (process-wide highs)
    // even when this particular request was not traced.
    telemetry_->registry().GetGauge("stream.peak_live_nodes")
        ->SetMax(peak_live_nodes_);
    telemetry_->registry().GetGauge("stream.peak_edb_bytes")
        ->SetMax(peak_edb_bytes_);
  }
  telemetry::TraceContext* trace = cur_trace();
  if (trace == nullptr) return;
  trace->set_page_bytes(bytes_fed_);
  trace->set_nodes(static_cast<int64_t>(num_children_.size()));
  const util::StatusCode code =
      status_.ok() ? util::StatusCode::kOk : status_.code();
  if (trace_ != nullptr && telemetry_ != nullptr) {
    telemetry_->FinishTrace(std::move(trace_), code);
  } else {
    // Caller-owned (or orphaned) trace: close it, the caller keeps it.
    trace->set_status(code);
    trace->Close();
    trace_.reset();
  }
}

util::Status StreamSession::Feed(std::string_view chunk) {
  const telemetry::TraceScope scope(cur_trace());
  util::Status s = FeedImpl(chunk);
  // Settled only after every span above has unwound: finishing the trace
  // moves its span log, and a live TraceSpan still points into it.
  SettleSessionTrace();
  return s;
}

util::Status StreamSession::FeedImpl(std::string_view chunk) {
  MD_RETURN_NOT_OK(CheckLive());
  bytes_fed_ += static_cast<int64_t>(chunk.size());
  telemetry::TraceSpan span(cur_trace(), "stream.feed");
  span.Value("bytes", static_cast<int64_t>(chunk.size()));
  const int32_t nodes_before = builder().size();
  util::Status s = scanner_.Feed(chunk, &constructor_, control());
  if (!s.ok()) return Terminal(std::move(s));
  span.Value("nodes", builder().size() - nodes_before);
  s = PropagateAll();
  if (!s.ok()) return Terminal(std::move(s));
  UpdateEdbPeak();
  return util::Status::OK();
}

void StreamSession::CreateNode(tree::NodeId n) {
  const tree::NodeId parent = builder().parent(n);
  num_children_.push_back(0);
  closed_.push_back(false);
  peak_live_nodes_ = std::max(peak_live_nodes_, ++live_nodes_);
  const int32_t k = ++num_children_[parent];
  const tree::NodeId prev = builder().prev_sibling(n);
  if (!incremental_) return;

  // A second top-level node refutes the stripped hypothesis before any fact
  // about this node is asserted.
  if (parent == 0 && k == 2 && !settled_) ResolveKept();

  const core::PredId label_pred = LabelPred(n);
  if (eval_stripped_ != nullptr) {
    eval_stripped_->AddNode(n, prev);
    AssertUnary(eval_stripped_.get(), label_pred, n);
    if (parent == 0) {
      // The first top-level node IS the root of the stripped tree (internal
      // ids run one above the batch EDB's). No sibling/parent facts: the
      // external root has none in TreeDatabase::Materialize.
      AssertUnary(eval_stripped_.get(), root_pred_, n);
    } else {
      if (prev == tree::kNoNode) {
        AssertBinary(eval_stripped_.get(), firstchild_pred_, parent, n);
        AssertUnary(eval_stripped_.get(), firstsibling_pred_, n);
      } else {
        AssertBinary(eval_stripped_.get(), nextsibling_pred_, prev, n);
      }
      AssertBinary(eval_stripped_.get(), child_pred_, parent, n);
      AssertChildK(eval_stripped_.get(), k, parent, n);
    }
  }
  if (eval_kept_ != nullptr) {
    // In the kept world node 0 is an ordinary node: top-level children link
    // to it exactly like any other parent.
    eval_kept_->AddNode(n, prev);
    AssertUnary(eval_kept_.get(), label_pred, n);
    if (prev == tree::kNoNode) {
      AssertBinary(eval_kept_.get(), firstchild_pred_, parent, n);
      AssertUnary(eval_kept_.get(), firstsibling_pred_, n);
    } else {
      AssertBinary(eval_kept_.get(), nextsibling_pred_, prev, n);
    }
    AssertBinary(eval_kept_.get(), child_pred_, parent, n);
    AssertChildK(eval_kept_.get(), k, parent, n);
  }
}

void StreamSession::CloseNode(tree::NodeId n) {
  closed_[n] = true;
  --live_nodes_;
  if (!incremental_) return;
  const tree::NodeId lc = builder().last_child(n);
  for (IncrementalTmnfEval* ev : {eval_stripped_.get(), eval_kept_.get()}) {
    if (ev == nullptr) continue;
    if (lc == tree::kNoNode) {
      AssertUnary(ev, leaf_pred_, n);
    } else {
      AssertUnary(ev, lastsibling_pred_, lc);
      AssertBinary(ev, lastchild_pred_, n, lc);
    }
  }
  // Anything already derived for this node was held back by the closed_
  // check; it is eligible now.
  for (const core::PredId pred : pattern_pred_list_) MaybeEmit(pred, n);
}

void StreamSession::ResolveKept() {
  settled_ = true;
  eval_stripped_.reset();
  // The emission criterion just relaxed from derived-in-both to
  // derived-in-kept: flush what the kept world had and the stripped world
  // was still missing.
  FlushEligible();
}

void StreamSession::MaybeEmit(core::PredId pred, tree::NodeId node) {
  const auto it = derived_.find(DerivedKey(pred, node));
  if (it == derived_.end()) return;
  uint8_t& bits = it->second;
  if (bits & kEmitted) return;
  if (!closed_[node]) return;
  // Pre-resolution, a result must hold under both hypotheses to be sound;
  // afterwards the winner alone decides.
  const uint8_t need = settled_    ? kInKept
                       : stripped_ ? kInStripped
                                   : (kInStripped | kInKept);
  if ((bits & need) != need) return;
  bits |= kEmitted;
  for (const int32_t idx : pred_patterns_[pred]) EmitResult(idx, node);
}

void StreamSession::FlushEligible() {
  std::vector<uint64_t> keys;
  keys.reserve(derived_.size());
  for (const auto& [key, bits] : derived_) {
    if (!(bits & kEmitted)) keys.push_back(key);
  }
  // Deterministic emission order regardless of hash-map iteration: by node,
  // then pattern pred.
  std::sort(keys.begin(), keys.end(), [](uint64_t a, uint64_t b) {
    const uint32_t na = static_cast<uint32_t>(a), nb = static_cast<uint32_t>(b);
    return na != nb ? na < nb : a < b;
  });
  for (const uint64_t key : keys) {
    MaybeEmit(static_cast<core::PredId>(key >> 32),
              static_cast<tree::NodeId>(static_cast<uint32_t>(key)));
  }
}

core::PredId StreamSession::LabelPred(tree::NodeId n) {
  const tree::LabelId id = builder().label(n);
  if (static_cast<size_t>(id) >= label_pred_of_id_.size()) {
    label_pred_of_id_.resize(id + 1, kUnresolved);
  }
  core::PredId& pred = label_pred_of_id_[id];
  if (pred == kUnresolved) {
    const auto it = label_preds_.find(builder().label_name(n));
    pred = it == label_preds_.end() ? -1 : it->second;
  }
  return pred;
}

void StreamSession::AssertChildK(IncrementalTmnfEval* ev, int32_t k,
                                 tree::NodeId parent, tree::NodeId child) {
  const auto it = childk_preds_.find(k);
  if (it != childk_preds_.end()) {
    ev->AddBinaryFact(it->second, parent, child);
  }
}

void StreamSession::EmitResult(int32_t pattern_index, tree::NodeId node) {
  if (!options_.on_result) return;
  StreamResult result;
  result.pattern = program_->prepared.extraction_patterns[pattern_index];
  result.label = builder().label_name(node);
  result.text = SubtreeTextOf(builder(), node);
  result.node = node;
  options_.on_result(result);
}

util::Result<std::string> StreamSession::Finish() {
  const telemetry::TraceScope scope(cur_trace());
  util::Result<std::string> result = FinishImpl();
  SettleSessionTrace();
  return result;
}

util::Result<std::string> StreamSession::FinishImpl() {
  MD_RETURN_NOT_OK(CheckLive());
  finished_ = true;
  telemetry::TraceSpan finish_span(cur_trace(), "stream.finish");

  util::Status s = scanner_.Finish(&constructor_, control());
  if (!s.ok()) return Terminal(std::move(s));
  // End of input closes everything still open.
  constructor_.CloseAll();
  if (builder().size() == 1) {
    return Terminal(util::Status::InvalidArgument("no content in HTML input"));
  }

  IncrementalTmnfEval* winner = nullptr;
  if (incremental_) {
    if (!settled_) {
      // Exactly one top-level node: the stripped hypothesis held. Its
      // evaluator has been complete since the last fact (root(1) was
      // asserted when node 1 was created).
      stripped_ = true;
      eval_kept_.reset();
      winner = eval_stripped_.get();
    } else {
      winner = eval_kept_.get();
      const tree::NodeId lc = builder().last_child(0);
      AssertUnary(winner, lastsibling_pred_, lc);
      AssertBinary(winner, lastchild_pred_, 0, lc);
    }
    closed_[0] = true;  // patterns may select the kept "#document" root
    {
      telemetry::TraceSpan span(cur_trace(), "stream.propagate");
      s = winner->Propagate(control());
      if (span) span.Value("facts", winner->num_facts());
    }
    UpdateEdbPeak();
    if (!s.ok()) return Terminal(std::move(s));
    // The hypothesis resolution relaxed the emission criterion; everything
    // the winner derived on closed subtrees (i.e. everything) must be out
    // before Finish returns.
    FlushEligible();
  } else {
    stripped_ = constructor_.single_rooted();
  }

  // The batch parser's tree: the synthetic root is dropped exactly when a
  // single top-level node exists, i.e. when the stripped hypothesis won.
  MD_DCHECK(stripped_ == constructor_.single_rooted());
  util::Result<tree::Tree> built = constructor_.Build();
  MD_CHECK(built.ok());  // content exists, checked above
  const tree::Tree out_tree = *std::move(built);

  elog::ElogResult matches;
  const auto& patterns = program_->prepared.extraction_patterns;
  if (incremental_) {
    const int32_t shift = stripped_ ? 1 : 0;
    for (size_t i = 0; i < patterns.size(); ++i) {
      const core::PredId pred = program_->pattern_preds[i];
      if (pred < 0) continue;  // never derivable: empty extent
      std::vector<tree::NodeId> extent = winner->Members(pred);
      for (tree::NodeId& node : extent) node -= shift;
      matches.matches[patterns[i]] = std::move(extent);
    }
  } else {
    // Fallback (Elog⁻Δ): the page streamed, the evaluation replays the
    // wrapper's ground plan over the built tree, as Wrap does.
    util::Result<core::EvalResult> result =
        core::EvaluateGrounded(*program_->ground_plan, out_tree,
                               &runtime::ThreadArena(), nullptr, control());
    if (!result.ok()) return Terminal(result.status());
    matches = program_->Matches(*result);
    if (options_.on_result) {
      const int32_t shift = stripped_ ? 1 : 0;
      for (const std::string& pattern : patterns) {
        const auto it = matches.matches.find(pattern);
        if (it == matches.matches.end()) continue;
        for (const tree::NodeId node : it->second) {
          StreamResult r;
          r.pattern = pattern;
          r.label = out_tree.label_name(node);
          r.text = out_tree.SubtreeText(node);
          r.node = node + shift;  // same internal-id convention as streaming
          options_.on_result(r);
        }
      }
    }
  }

  std::string xml =
      tree::ToXml(wrapper::BuildOutputTree(patterns, matches, out_tree));
  Terminal(util::Status::OK());
  return xml;
}

}  // namespace mdatalog::stream
