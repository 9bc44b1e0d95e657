#include "src/stream/stream_session.h"

#include <algorithm>

#include "src/html/parser.h"
#include "src/util/bits.h"
#include "src/util/check.h"
#include "src/wrapper/wrapper.h"

namespace mdatalog::stream {

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
      telemetry_(telemetry) {
  MD_CHECK(program_ != nullptr && telemetry_ != nullptr);
  trace_ = telemetry_->StartTrace(telemetry::RequestKind::kStream);
  // The synthetic root the constructor starts with: whether it survives
  // into the output tree is settled at end of input. Until then the two
  // worlds disagree about it by design: the kept world sees it as the root,
  // the stripped world never sees it at all.
  closed_.push_back(0);
  const core::GroundPlan& plan = *program_->ground_plan;
  stripped_world_ = std::make_unique<core::IncrementalReplay>(
      plan, builder(), /*hide_root=*/true);
  kept_world_ = std::make_unique<core::IncrementalReplay>(
      plan, builder(), /*hide_root=*/false);
  kept_world_->NodeCreated(0);
  const auto& patterns = program_->prepared.extraction_patterns;
  for (size_t i = 0; i < patterns.size(); ++i) {
    const core::PredId p = program_->pattern_preds[i];
    if (p < 0) continue;  // never derivable: empty extent
    auto it = std::find_if(pattern_preds_.begin(), pattern_preds_.end(),
                           [p](const PatternPred& pp) { return pp.pred == p; });
    if (it == pattern_preds_.end()) {
      pattern_preds_.push_back({p, {}, {}, {}});
      it = pattern_preds_.end() - 1;
      stripped_world_->Watch(p);
      kept_world_->Watch(p);
    }
    it->patterns.push_back(static_cast<int32_t>(i));
  }
  // FlushEligible's deterministic order: by node, then predicate.
  std::sort(pattern_preds_.begin(), pattern_preds_.end(),
            [](const PatternPred& a, const PatternPred& b) {
              return a.pred < b.pred;
            });
  BindPatternSets();
}

void StreamSession::BindPatternSets() {
  for (PatternPred& pp : pattern_preds_) {
    for (size_t w = 0; w < pp.derived.size(); ++w) {
      pp.derived[w] =
          worlds()[w] != nullptr ? worlds()[w]->Members(pp.pred) : nullptr;
    }
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
  telemetry::TraceSpan span(trace_.get(), telemetry::Stage::kStreamPropagate);
  int64_t facts_before = 0;
  if (span) {
    for (const core::IncrementalReplay* world : worlds()) {
      if (world != nullptr) facts_before += world->num_derived();
    }
  }
  for (core::IncrementalReplay* world : worlds()) {
    if (world != nullptr) MD_RETURN_NOT_OK(world->Propagate(control()));
  }
  EmitDerived();
  if (span) {
    int64_t facts_after = 0;
    for (const core::IncrementalReplay* world : worlds()) {
      if (world != nullptr) facts_after += world->num_derived();
    }
    span.Value("delta", facts_after - facts_before);
  }
  return util::Status::OK();
}

void StreamSession::UpdateEdbPeak() {
  int64_t bytes = 0;
  for (const core::IncrementalReplay* world : worlds()) {
    if (world != nullptr) bytes += world->ApproxBytes();
  }
  peak_edb_bytes_ = std::max(peak_edb_bytes_, bytes);
}

void StreamSession::SettleSessionTrace() {
  if (!terminal_) return;
  // The peaks survive the session as registry gauges (process-wide highs)
  // even when this particular request was not traced.
  telemetry_->registry().GetGauge("stream.peak_live_nodes")
      ->SetMax(peak_live_nodes_);
  telemetry_->registry().GetGauge("stream.peak_edb_bytes")
      ->SetMax(peak_edb_bytes_);
  if (trace_ == nullptr) return;
  trace_->set_page_bytes(bytes_fed_);
  trace_->set_nodes(static_cast<int64_t>(closed_.size()));
  const util::StatusCode code =
      status_.ok() ? util::StatusCode::kOk : status_.code();
  telemetry_->FinishTrace(std::move(trace_), code);
}

util::Status StreamSession::Feed(std::string_view chunk) {
  const telemetry::TraceScope scope(trace_.get());
  util::Status s = FeedImpl(chunk);
  // Settled only after every span above has unwound: finishing the trace
  // moves its span log, and a live TraceSpan still points into it.
  SettleSessionTrace();
  return s;
}

util::Status StreamSession::FeedImpl(std::string_view chunk) {
  MD_RETURN_NOT_OK(CheckLive());
  bytes_fed_ += static_cast<int64_t>(chunk.size());
  telemetry::TraceSpan span(trace_.get(), telemetry::Stage::kStreamFeed);
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
  closed_.push_back(0);
  peak_live_nodes_ = std::max(peak_live_nodes_, ++live_nodes_);
  // A second top-level node refutes the stripped hypothesis before that
  // world could see it.
  if (!settled_ && builder().parent(n) == 0 &&
      builder().prev_sibling(n) != tree::kNoNode) {
    ResolveKept();
  }
  for (core::IncrementalReplay* world : worlds()) {
    if (world != nullptr) world->NodeCreated(n);
  }
}

void StreamSession::CloseNode(tree::NodeId n) {
  closed_[n] = 1;
  --live_nodes_;
  for (core::IncrementalReplay* world : worlds()) {
    if (world != nullptr) world->NodeClosed(n);
  }
  // Anything already derived for this node was held back by the closed_
  // check; it is eligible now.
  for (size_t pi = 0; pi < pattern_preds_.size(); ++pi) MaybeEmit(pi, n);
}

void StreamSession::ResolveKept() {
  settled_ = true;
  stripped_world_.reset();
  BindPatternSets();
  // The emission criterion just relaxed from derived-in-both to
  // derived-in-kept: flush what the kept world had and the stripped world
  // was still missing.
  FlushEligible();
}

void StreamSession::MaybeEmit(size_t pi, tree::NodeId node) {
  PatternPred& pp = pattern_preds_[pi];
  if (closed_[node] == 0 || pp.emitted.Contains(node)) return;
  // Pre-resolution, a result must hold under both hypotheses to be sound;
  // afterwards the winner alone decides.
  for (const core::NodeSet* derived : pp.derived) {
    if (derived != nullptr && !derived->Contains(node)) return;
  }
  if (node >= pp.emitted.domain_size()) pp.emitted.Grow(builder().size());
  pp.emitted.Insert(node);
  for (const int32_t idx : pp.patterns) EmitResult(idx, node);
}

void StreamSession::FlushEligible() {
  // The candidates are the nodes some live world derived for some pattern,
  // taken a word of each set at a time so the walk is by node.
  size_t num_words = 0;
  for (const PatternPred& pp : pattern_preds_) {
    for (const core::NodeSet* derived : pp.derived) {
      if (derived != nullptr) {
        num_words = std::max(num_words, derived->num_words());
      }
    }
  }
  for (size_t w = 0; w < num_words; ++w) {
    uint64_t candidates = 0;
    for (const PatternPred& pp : pattern_preds_) {
      for (const core::NodeSet* derived : pp.derived) {
        if (derived != nullptr && w < derived->num_words()) {
          candidates |= derived->words()[w];
        }
      }
    }
    for (; candidates != 0; candidates &= candidates - 1) {
      const tree::NodeId n =
          static_cast<tree::NodeId>(w * 64) + util::Ctz64(candidates);
      for (size_t pi = 0; pi < pattern_preds_.size(); ++pi) MaybeEmit(pi, n);
    }
  }
}

void StreamSession::EmitDerived() {
  fresh_.clear();
  for (core::IncrementalReplay* world : worlds()) {
    if (world == nullptr) continue;
    fresh_.insert(fresh_.end(), world->derived().begin(),
                  world->derived().end());
    world->ClearDerived();
  }
  // Document order, then predicate order — FlushEligible's order — rather
  // than the replay's pop order.
  std::sort(fresh_.begin(), fresh_.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second < b.second : a.first < b.first;
  });
  for (const auto& [pred, node] : fresh_) {
    for (size_t pi = 0; pi < pattern_preds_.size(); ++pi) {
      if (pattern_preds_[pi].pred == pred) MaybeEmit(pi, node);
    }
  }
}

void StreamSession::EmitResult(int32_t pattern_index, tree::NodeId node) {
  if (!options_.on_result) return;
  StreamResult result;
  result.pattern = program_->prepared.extraction_patterns[pattern_index];
  result.label = builder().label_name(node);
  // The closed subtree's text, concatenated like Tree::SubtreeText so it
  // matches what the finished tree reports.
  tree::WalkSubtree(
      builder(), node,
      [&](tree::NodeId m) { result.text += builder().text(m); },
      [](tree::NodeId) {});
  result.node = node;
  options_.on_result(result);
}

util::Result<std::string> StreamSession::Finish() {
  const telemetry::TraceScope scope(trace_.get());
  util::Result<std::string> result = FinishImpl();
  SettleSessionTrace();
  return result;
}

util::Result<std::string> StreamSession::FinishImpl() {
  MD_RETURN_NOT_OK(CheckLive());
  finished_ = true;
  telemetry::TraceSpan finish_span(trace_.get(),
                                   telemetry::Stage::kStreamFinish);

  util::Status s = scanner_.Finish(&constructor_, control());
  if (!s.ok()) return Terminal(std::move(s));
  // End of input closes everything still open.
  constructor_.CloseAll();
  if (builder().size() == 1) {
    return Terminal(util::Status::InvalidArgument("no content in HTML input"));
  }

  core::IncrementalReplay* winner = nullptr;
  if (!settled_) {
    // Exactly one top-level node: the stripped hypothesis held, and every
    // structural fact of its world has been final since node 1 closed.
    stripped_ = true;
    kept_world_.reset();
    BindPatternSets();
    winner = stripped_world_.get();
  } else {
    winner = kept_world_.get();
    closed_[0] = 1;  // patterns may select the kept "#document" root
    winner->NodeClosed(0);
  }
  // The tree is finished: the Δ builtin facts are final too.
  winner->EndOfInput();
  {
    telemetry::TraceSpan span(trace_.get(), telemetry::Stage::kStreamPropagate);
    s = winner->Propagate(control());
    if (span) span.Value("facts", winner->num_derived());
  }
  UpdateEdbPeak();
  if (!s.ok()) return Terminal(std::move(s));
  EmitDerived();
  // The hypothesis resolution relaxed the emission criterion; everything
  // the winner derived on closed subtrees (i.e. everything) must be out
  // before Finish returns.
  FlushEligible();
  // The batch parser's tree: the synthetic root is dropped exactly when a
  // single top-level node exists, i.e. when the stripped hypothesis won.
  // The winner's sets stay readable after Build consumes the builder; they
  // count that root, so a member m names node m - shift of the tree.
  MD_DCHECK(stripped_ == constructor_.single_rooted());
  util::Result<tree::Tree> built = constructor_.Build();
  MD_CHECK(built.ok());  // content exists, checked above
  std::string xml;
  {
    telemetry::TraceSpan span(trace_.get(), telemetry::Stage::kOutputBuild);
    std::vector<const core::NodeSet*> sets;
    sets.reserve(program_->pattern_preds.size());
    for (const core::PredId pred : program_->pattern_preds) {
      sets.push_back(winner->Members(pred));
    }
    wrapper::WriteXml(program_->prepared.extraction_patterns, sets, *built,
                      &xml, /*shift=*/stripped_ ? 1 : 0);
  }
  stripped_world_.reset();
  kept_world_.reset();
  BindPatternSets();
  Terminal(util::Status::OK());
  return xml;
}

}  // namespace mdatalog::stream
