#include "blockio/block_layer.h"

#include <algorithm>

#include "common/assert.h"

namespace pipette {

void BlockLayer::merge(std::vector<PageRead>& pages,
                       std::vector<ReadRun>& runs) {
  runs.clear();
  if (pages.empty()) return;
  std::sort(pages.begin(), pages.end(),
            [](const PageRead& a, const PageRead& b) {
              return a.lba != b.lba ? a.lba < b.lba : a.tag < b.tag;
            });
  pages.erase(std::unique(pages.begin(), pages.end(),
                          [](const PageRead& a, const PageRead& b) {
                            return a.lba == b.lba;
                          }),
              pages.end());
  runs.push_back({pages[0].lba, 1, 0});
  for (std::size_t i = 1; i < pages.size(); ++i) {
    ReadRun& run = runs.back();
    if (pages[i].lba == run.start + run.count) {
      ++run.count;
    } else {
      runs.push_back({pages[i].lba, 1, static_cast<std::uint32_t>(i)});
    }
  }
}

void BlockLayer::prepare(Batch& batch, std::span<const PageRead> pages,
                         FramePool& frames) {
  stats_.page_requests += pages.size();
  batch.pages.assign(pages.begin(), pages.end());
  merge(batch.pages, batch.runs);
  stats_.merged_requests += batch.runs.size();
  batch.frames.clear();
  for (std::size_t i = 0; i < batch.pages.size(); ++i)
    batch.frames.push_back(frames.take());
  batch.runs_left = batch.runs.size();
  // Per-request block-layer CPU cost is serial (one submitting thread).
  sim_.advance(timing_.block_layer_per_request * batch.runs.size());
}

void BlockLayer::submit_run(const Batch& batch, std::size_t r,
                            SsdController::Completion done) {
  const ReadRun& run = batch.runs[r];
  Command cmd;
  cmd.op = Opcode::kRead;
  cmd.lba = run.start;
  cmd.nlb = run.count;
  cmd.host_pages = std::span<std::uint8_t* const>(batch.frames)
                       .subspan(run.first, run.count);
  ssd_.submit(std::move(cmd), std::move(done));
}

void BlockLayer::issue_sync(std::span<const PageRead> pages,
                            FramePool& frames) {
  prepare(sync_, pages, frames);
  sync_.run_ok.assign(sync_.runs.size(), true);
  // Commands are in flight concurrently. Two words of capture stay within
  // std::function's inline buffer.
  for (std::size_t r = 0; r < sync_.runs.size(); ++r) {
    submit_run(sync_, r, [this, r](const CommandResult& res) {
      sync_.run_ok[r] = res.status == CmdStatus::kOk;
      --sync_.runs_left;
    });
  }
  const bool done =
      sim_.run_until_condition([this] { return sync_.runs_left == 0; });
  PIPETTE_ASSERT_MSG(done, "device never completed block reads");
}

void BlockLayer::read_pages_async(std::span<const PageRead> pages,
                                  FramePool& frames, AsyncSink sink) {
  if (pages.empty()) return;
  Batch* batch;
  if (!async_free_.empty()) {
    batch = async_free_.back();
    async_free_.pop_back();
  } else {
    async_pool_.push_back(std::make_unique<Batch>());
    batch = async_pool_.back().get();
  }
  prepare(*batch, pages, frames);
  batch->layer = this;
  batch->pool = &frames;
  batch->sink = std::move(sink);
  for (std::size_t r = 0; r < batch->runs.size(); ++r) {
    submit_run(*batch, r,
               [batch, r = static_cast<std::uint32_t>(r)](
                   const CommandResult& res) {
                 finish_async_run(batch, r, res.status == CmdStatus::kOk);
               });
  }
}

void BlockLayer::finish_async_run(Batch* batch, std::uint32_t r, bool ok) {
  const ReadRun run = batch->runs[r];
  for (std::uint32_t i = run.first; i < run.first + run.count; ++i) {
    std::uint8_t* frame = batch->frames[i];
    if (!ok) {
      batch->pool->give_back(frame);
      frame = nullptr;
    }
    batch->sink(batch->pages[i], frame);
  }
  // Decrement only after delivering: a sink's writeback may run the
  // simulator and complete this batch's other runs, and the batch must
  // stay live until this loop is done with it.
  if (--batch->runs_left == 0) {
    batch->sink = nullptr;
    batch->layer->async_free_.push_back(batch);
  }
}

void BlockLayer::write_page(Lba lba, const std::uint8_t* data) {
  ++stats_.merged_requests;
  sim_.advance(timing_.block_layer_per_request);
  Command cmd;
  cmd.op = Opcode::kWrite;
  cmd.lba = lba;
  cmd.nlb = 1;
  cmd.write_data.assign(data, data + kBlockSize);
  bool finished = false;
  ssd_.submit(std::move(cmd),
              [&finished](const CommandResult&) { finished = true; });
  const bool done =
      sim_.run_until_condition([&finished] { return finished; });
  PIPETTE_ASSERT_MSG(done, "device never completed the write");
}

}  // namespace pipette
