#include "core/dump_driver.h"

#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace somr::core {
namespace {

// A source of `count` pages titled p0, p1, ...; `read` counts the pages
// it handed out.
PageSource Pages(size_t count, size_t& read) {
  read = 0;
  return [count, &read]() -> std::optional<xmldump::PageHistory> {
    if (read == count) return std::nullopt;
    xmldump::PageHistory page;
    page.title = "p" + std::to_string(read++);
    return page;
  };
}

std::vector<std::string> Titles(size_t count) {
  std::vector<std::string> titles;
  for (size_t i = 0; i < count; ++i) titles.push_back("p" + std::to_string(i));
  return titles;
}

// Returns the page's title, and checks whether the driver ran it on an
// executor.
auto TitleStep(bool on_executor) {
  return [on_executor](const xmldump::PageHistory& page,
                       parallel::Executor* executor) -> StatusOr<std::string> {
    EXPECT_EQ(executor != nullptr, on_executor) << page.title;
    return page.title;
  };
}

TEST(DumpDriverTest, ResultsKeepDumpOrder) {
  for (unsigned threads : {1u, 4u}) {
    size_t read = 0;
    StatusOr<std::vector<std::string>> results = DrivePages<std::string>(
        Pages(200, read), nullptr, threads, TitleStep(threads > 1));
    ASSERT_TRUE(results.ok()) << results.status().ToString();
    EXPECT_EQ(*results, Titles(200)) << threads << " threads";
    EXPECT_EQ(read, 200u);
  }
}

TEST(DumpDriverTest, AttachedExecutorIsUsedAtAnyThreadCount) {
  parallel::Executor pool(3);
  size_t read = 0;
  std::atomic<size_t> on_pool{0};
  StatusOr<std::vector<std::string>> results = DrivePages<std::string>(
      Pages(50, read), &pool, /*num_threads=*/1,
      [&](const xmldump::PageHistory& page,
          parallel::Executor* executor) -> StatusOr<std::string> {
        if (executor == &pool) on_pool.fetch_add(1);
        return page.title;
      });
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(*results, Titles(50));
  EXPECT_EQ(on_pool.load(), 50u);
}

TEST(DumpDriverTest, EmptyInput) {
  for (unsigned threads : {1u, 4u}) {
    size_t read = 0;
    StatusOr<std::vector<std::string>> results = DrivePages<std::string>(
        Pages(0, read), nullptr, threads, TitleStep(threads > 1));
    ASSERT_TRUE(results.ok());
    EXPECT_TRUE(results->empty()) << threads << " threads";
  }
}

TEST(DumpDriverTest, MoreWorkersThanPages) {
  size_t read = 0;
  StatusOr<std::vector<std::string>> results = DrivePages<std::string>(
      Pages(2, read), nullptr, /*num_threads=*/16, TitleStep(true));
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(*results, Titles(2));
}

TEST(DumpDriverTest, FailedPageIsReturnedAndStopsTheFeed) {
  constexpr size_t kPages = 100000;
  constexpr size_t kFailing = 5;
  for (unsigned threads : {1u, 4u}) {
    size_t read = 0;
    // Later pages wait for the failing one, so the feed cannot finish
    // before the failure: any page read after it was read in the short
    // window before the driver saw the failure.
    std::atomic<bool> failed{false};
    StatusOr<std::vector<std::string>> results = DrivePages<std::string>(
        Pages(kPages, read), nullptr, threads,
        [&](const xmldump::PageHistory& page,
            parallel::Executor*) -> StatusOr<std::string> {
          const size_t index = std::stoul(page.title.substr(1));
          if (index == kFailing) {
            failed.store(true);
            return Status::Internal("page " + page.title + " failed");
          }
          while (index > kFailing && !failed.load()) {
            std::this_thread::yield();
          }
          return page.title;
        });
    ASSERT_FALSE(results.ok()) << threads << " threads";
    EXPECT_EQ(results.status().message(), "page p5 failed");
    if (threads == 1) {
      EXPECT_EQ(read, kFailing + 1);
    } else {
      // Up to the failing page, plus about the channel (two pages per
      // worker) and the other workers' pages.
      EXPECT_LT(read, kPages) << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace somr::core
