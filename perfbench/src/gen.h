#pragma once

// Seeded workload inputs. Every generator is a pure function of its seed:
// the same seed gives byte-identical dumps, snapshots and request
// sequences, so two builds measured on one seed see the same inputs.

#include <cstdint>
#include <string>
#include <vector>

#include "archive/crawl_sampler.h"
#include "archive/socrata.h"
#include "common/rng.h"
#include "core/pipeline.h"
#include "eval/metrics.h"
#include "wikigen/corpus.h"

namespace perfbench {

/// splitmix64 of `seed` and `salt`: derives independent sub-seeds.
uint64_t Mix(uint64_t seed, uint64_t salt);

uint64_t Fnv1a(const std::string& bytes, uint64_t hash = 14695981039346656037u);

// ---- wiki_batch -----------------------------------------------------------

/// Page workers ProcessDumpStream runs with (fixed; <= nproc).
inline constexpr unsigned kWikiPageWorkers = 2;

struct WikiCorpus {
  somr::wikigen::GoldCorpus corpus;
  /// The corpus as consecutive dump files (MediaWiki history dumps come
  /// split into many files); file f holds pages [f * n, (f + 1) * n).
  std::vector<std::string> files;
  size_t pages_per_file = 0;
  size_t revisions = 0;
  size_t bytes = 0;
};

/// Stratified table-focal gold corpus (strata caps 1..64) and its dump
/// files.
WikiCorpus MakeWikiCorpus(uint64_t seed);

// ---- lake_match -----------------------------------------------------------

/// Socrata data lake: one context per subdomain, twelve monthly snapshots
/// of large unordered tables.
std::vector<somr::archive::SocrataContext> MakeLake(uint64_t seed);

/// Matcher configuration of the lake (no spatial features: a lake has no
/// page order).
somr::matching::MatcherConfig LakeMatcherConfig();

/// Bytes of cell, header and caption text in one snapshot.
size_t SnapshotBytes(const std::vector<somr::extract::ObjectInstance>& rows);

// ---- serve_crawl ----------------------------------------------------------

/// Daemon shape for serve_crawl (fixed): shard workers, resident contexts
/// per shard, load-generator connections.
inline constexpr unsigned kServeShards = 2;
inline constexpr unsigned kServeCacheCapacity = 24;
inline constexpr unsigned kServeConnections = 2;
/// Zipf-ranked contexts the load generator spreads requests over.
inline constexpr unsigned kServeContexts = 160;
inline constexpr double kServeZipfExponent = 1.0;

/// Crawl-sampled HTML page histories (Internet-Archive style captures of
/// generated pages with site chrome); contexts replay them.
std::vector<somr::archive::SampledHistory> MakeCrawls(uint64_t seed);

/// One POST: the next capture of one context.
struct CrawlRequest {
  std::string context;  // context id (also the page title in the body)
  uint32_t rank = 0;    // Zipf rank of the context slot
  uint32_t page = 0;    // index into the crawl histories
  uint32_t capture = 0; // revision index within that history
};

/// The closed-loop request sequence of one connection. Connection c owns
/// the context ranks r with r % connections == c, so per-context order
/// holds across connections. Each request picks a rank by Zipf weight
/// and posts that context's next capture; a context whose history is
/// exhausted is replaced by a fresh context (next generation) on the
/// same rank, which keeps the skew stationary for any run length.
class RequestStream {
 public:
  RequestStream(const std::vector<somr::archive::SampledHistory>& crawls,
                uint64_t seed, unsigned connection, unsigned connections,
                unsigned contexts, double zipf_exponent);

  CrawlRequest Next();

 private:
  struct Slot {
    uint32_t rank = 0;
    uint32_t generation = 0;
    uint32_t page = 0;
    uint32_t next_capture = 0;
  };
  void Assign(Slot& slot);

  const std::vector<somr::archive::SampledHistory>& crawls_;
  uint64_t seed_;
  somr::Rng rng_;
  std::vector<Slot> slots_;
  std::vector<double> cumulative_;  // Zipf CDF over slots_
};

/// The request body of `request`: a one-page dump with one revision.
std::string RequestBody(const std::vector<somr::archive::SampledHistory>& crawls,
                        const CrawlRequest& request);

// ---- shared ---------------------------------------------------------------

/// The three identity graphs of a result in the serve daemon's order and
/// text format (table, infobox, list).
std::string GraphText(const somr::core::PageResult& result);

/// Pooled accuracy of one output against truth (every object type).
struct Quality {
  somr::eval::ObjectAccuracyCounts objects;
  somr::eval::EdgeMetrics edges;

  void Add(const somr::matching::IdentityGraph& truth,
           const somr::matching::IdentityGraph& output);
};

}  // namespace perfbench
