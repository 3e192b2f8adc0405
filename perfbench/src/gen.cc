#include "gen.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "matching/graph_io.h"
#include "wikigen/evolver.h"
#include "xmldump/dump.h"

namespace perfbench {

using namespace somr;

namespace {

// Input sizes: fixed, so every seed yields the same shape of work.
constexpr int kWikiRevisionsPerPage = 40;
constexpr int kWikiPagesPerTheme = 2;
constexpr size_t kWikiPagesPerFile = 5;

constexpr int kLakeSubdomains = 24;
constexpr int kLakeDatasetsPerSubdomain = 20;
constexpr int kLakeSnapshots = 12;

constexpr int kCrawlPages = 48;
constexpr double kCrawlIntervalDays = 30.0;

}  // namespace

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15u * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9u;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebu;
  return z ^ (z >> 31);
}

uint64_t Fnv1a(const std::string& bytes, uint64_t hash) {
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211u;
  }
  return hash;
}

WikiCorpus MakeWikiCorpus(uint64_t seed) {
  // GenerateGoldCorpus draws each page's theme and length from the seed,
  // which makes the total work swing by 2x between seeds. The same strata
  // are built here with the shape fixed: every stratum cap gets the same
  // pages per theme, of fixed length, starting at a quarter of the cap.
  // The seed still drives all content and every edit.
  static constexpr int kCaps[] = {1, 3, 7, 15, 31, 64};
  static constexpr wikigen::PageTheme kThemes[] = {
      wikigen::PageTheme::kAwards, wikigen::PageTheme::kSports,
      wikigen::PageTheme::kDiscography, wikigen::PageTheme::kSettlement,
      wikigen::PageTheme::kGeneric};
  WikiCorpus out;
  out.corpus.focal_type = extract::ObjectType::kTable;
  uint64_t page_seed = Mix(seed, 1);
  for (int cap : kCaps) {
    for (wikigen::PageTheme theme : kThemes) {
      for (int copy = 0; copy < kWikiPagesPerTheme; ++copy) {
        wikigen::EvolverConfig config;
        config.focal_type = extract::ObjectType::kTable;
        config.max_focal_objects = cap;
        config.initial_focal_objects = std::max(1, (cap + 3) / 4);
        config.num_revisions = kWikiRevisionsPerPage;
        config.theme = theme;
        config.seed = page_seed = Mix(page_seed, 1);
        out.corpus.pages.push_back(wikigen::PageEvolver(config).Generate());
        out.corpus.page_stratum_cap.push_back(cap);
      }
    }
  }
  const xmldump::Dump dump = wikigen::CorpusToDump(out.corpus);
  out.pages_per_file = kWikiPagesPerFile;
  for (size_t first = 0; first < dump.pages.size();
       first += kWikiPagesPerFile) {
    xmldump::Dump file;
    file.site_name = dump.site_name;
    for (size_t p = first;
         p < std::min(dump.pages.size(), first + kWikiPagesPerFile); ++p) {
      file.pages.push_back(dump.pages[p]);
      out.revisions += dump.pages[p].revisions.size();
    }
    out.files.push_back(xmldump::WriteDump(file));
    out.bytes += out.files.back().size();
  }
  return out;
}

std::vector<archive::SocrataContext> MakeLake(uint64_t seed) {
  archive::SocrataConfig config;
  config.subdomains.clear();
  for (int i = 0; i < kLakeSubdomains; ++i) {
    char name[16];
    std::snprintf(name, sizeof(name), "lake%02d", i);
    config.subdomains.push_back(name);
  }
  config.datasets_per_subdomain = kLakeDatasetsPerSubdomain;
  config.num_snapshots = kLakeSnapshots;
  config.seed = Mix(seed, 2);
  return archive::GenerateSocrata(config);
}

matching::MatcherConfig LakeMatcherConfig() {
  matching::MatcherConfig config;
  config.use_spatial_features = false;
  return config;
}

size_t SnapshotBytes(const std::vector<extract::ObjectInstance>& rows) {
  size_t bytes = 0;
  for (const extract::ObjectInstance& object : rows) {
    bytes += object.caption.size();
    for (const std::string& h : object.schema) bytes += h.size();
    for (const auto& row : object.rows) {
      for (const std::string& cell : row) bytes += cell.size();
    }
  }
  return bytes;
}

std::vector<archive::SampledHistory> MakeCrawls(uint64_t seed) {
  Rng rng(Mix(seed, 3));
  std::vector<archive::SampledHistory> crawls;
  while (static_cast<int>(crawls.size()) < kCrawlPages) {
    wikigen::EvolverConfig config;
    config.focal_type = extract::ObjectType::kTable;
    config.max_focal_objects = 2 + static_cast<int>(rng.UniformInt(0, 8));
    config.num_revisions = 60 + static_cast<int>(rng.UniformInt(0, 80));
    config.theme = rng.Bernoulli(0.5) ? wikigen::PageTheme::kGeneric
                                      : wikigen::PageTheme::kSettlement;
    config.seed = rng.engine()();
    config.html_web_chrome = true;
    wikigen::GeneratedPage page = wikigen::PageEvolver(config).Generate();
    archive::SampledHistory sampled =
        archive::SampleCrawls(page, kCrawlIntervalDays, rng);
    if (sampled.page.revisions.size() < 4) continue;
    crawls.push_back(std::move(sampled));
  }
  return crawls;
}

RequestStream::RequestStream(
    const std::vector<archive::SampledHistory>& crawls, uint64_t seed,
    unsigned connection, unsigned connections, unsigned contexts,
    double zipf_exponent)
    : crawls_(crawls), seed_(seed), rng_(Mix(seed, 100 + connection)) {
  double total = 0.0;
  for (unsigned rank = connection; rank < contexts; rank += connections) {
    Slot slot;
    slot.rank = rank;
    Assign(slot);
    slots_.push_back(slot);
    total += 1.0 / std::pow(static_cast<double>(rank + 1), zipf_exponent);
    cumulative_.push_back(total);
  }
  for (double& c : cumulative_) c /= total;
}

void RequestStream::Assign(Slot& slot) {
  slot.page = static_cast<uint32_t>(
      Mix(seed_, (static_cast<uint64_t>(slot.rank) << 32) | slot.generation) %
      crawls_.size());
  slot.next_capture = 0;
}

CrawlRequest RequestStream::Next() {
  const double u = rng_.UniformDouble();
  size_t i = static_cast<size_t>(
      std::lower_bound(cumulative_.begin(), cumulative_.end(), u) -
      cumulative_.begin());
  if (i >= slots_.size()) i = slots_.size() - 1;
  Slot& slot = slots_[i];
  if (slot.next_capture >= crawls_[slot.page].page.revisions.size()) {
    ++slot.generation;
    Assign(slot);
  }
  char id[32];
  std::snprintf(id, sizeof(id), "ctx%04u-g%u", slot.rank, slot.generation);
  CrawlRequest request;
  request.context = id;
  request.rank = slot.rank;
  request.page = slot.page;
  request.capture = slot.next_capture++;
  return request;
}

std::string RequestBody(const std::vector<archive::SampledHistory>& crawls,
                        const CrawlRequest& request) {
  const xmldump::PageHistory& page = crawls[request.page].page;
  xmldump::Dump dump;
  xmldump::PageHistory one;
  one.title = request.context;
  one.page_id = page.page_id;
  one.ns = page.ns;
  one.revisions.push_back(page.revisions[request.capture]);
  dump.pages.push_back(std::move(one));
  return xmldump::WriteDump(dump);
}

std::string GraphText(const core::PageResult& result) {
  return matching::SerializeIdentityGraph(result.tables) +
         matching::SerializeIdentityGraph(result.infoboxes) +
         matching::SerializeIdentityGraph(result.lists);
}

void Quality::Add(const matching::IdentityGraph& truth,
                  const matching::IdentityGraph& output) {
  objects.Add(eval::CountCorrectObjects(truth, output));
  edges.Add(eval::CompareEdges(truth, output));
}

}  // namespace perfbench
