#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/status.h"
#include "parallel/executor.h"
#include "parallel/mpmc_channel.h"
#include "xmldump/dump.h"

namespace somr::core {

/// Yields a dump's pages in order, then nothing: at the end of the input
/// or on a read error, which its owner reports after the drive.
using PageSource = std::function<std::optional<xmldump::PageHistory>()>;

/// The one dump driver, behind batch and ingest: runs `step(page,
/// executor)` -> StatusOr<Result> on every page of `next_page` and returns
/// the results in dump order. The executor is `attached`, else a local
/// pool of `num_threads` workers when that is > 1, else none: the calling
/// thread then steps each page itself, with a null executor. With one,
/// the calling thread reads pages into a bounded channel (two pages per
/// worker) and one TaskGroup consumer per worker steps them into its own
/// results, so no lock is held around page work. The first failed step
/// stops the feed: no page is read after it, queued pages are dropped,
/// and the failure of the earliest failed page is returned.
template <typename Result, typename Step>
StatusOr<std::vector<Result>> DrivePages(const PageSource& next_page,
                                         parallel::Executor* attached,
                                         unsigned num_threads,
                                         const Step& step) {
  std::optional<parallel::Executor> local_pool;
  parallel::Executor* executor = attached;
  if (executor == nullptr && num_threads > 1) {
    executor = &local_pool.emplace(num_threads);
  }

  std::vector<Result> results;
  if (executor == nullptr) {
    while (std::optional<xmldump::PageHistory> page = next_page()) {
      StatusOr<Result> result = step(*page, nullptr);
      if (!result.ok()) return result.status();
      results.push_back(std::move(*result));
    }
    return results;
  }

  struct Item {
    size_t index = 0;
    xmldump::PageHistory page;
  };
  struct Consumer {
    std::vector<std::pair<size_t, Result>> done;
    size_t failed_page = 0;
    Status error;
  };
  const unsigned workers = executor->num_workers();
  parallel::Channel<Item> channel(static_cast<size_t>(workers) * 2);
  std::vector<Consumer> consumers(workers);
  std::atomic<bool> failed{false};
  parallel::TaskGroup group(*executor);
  for (Consumer& consumer : consumers) {
    group.Run([&channel, &failed, &step, &consumer, executor] {
      Item item;
      while (channel.Pop(item)) {
        if (failed.load(std::memory_order_relaxed)) continue;
        StatusOr<Result> result = step(item.page, executor);
        if (result.ok()) {
          consumer.done.emplace_back(item.index, std::move(*result));
        } else {
          consumer.failed_page = item.index;
          consumer.error = result.status();
          failed.store(true, std::memory_order_relaxed);
        }
      }
    });
  }

  size_t pages = 0;
  while (!failed.load(std::memory_order_relaxed)) {
    std::optional<xmldump::PageHistory> page = next_page();
    if (!page.has_value()) break;
    channel.Push({pages++, std::move(*page)});
  }
  channel.Close();
  group.Wait();

  const Consumer* first_failure = nullptr;
  for (const Consumer& consumer : consumers) {
    if (consumer.error.ok()) continue;
    if (!first_failure || consumer.failed_page < first_failure->failed_page) {
      first_failure = &consumer;
    }
  }
  if (first_failure != nullptr) return first_failure->error;
  results.resize(pages);
  for (Consumer& consumer : consumers) {
    for (auto& [index, result] : consumer.done) {
      results[index] = std::move(result);
    }
  }
  return results;
}

}  // namespace somr::core
