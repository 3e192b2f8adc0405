#include "wikigen/corpus.h"

#include "common/rng.h"

namespace somr::wikigen {

namespace {

PageTheme ThemeFor(extract::ObjectType focal, Rng& rng) {
  double u = rng.UniformDouble();
  switch (focal) {
    case extract::ObjectType::kTable:
      // Emphasis on the hard cases: pages full of same-schema tables
      // (awards, standings).
      if (u < 0.40) return PageTheme::kAwards;
      if (u < 0.55) return PageTheme::kSports;
      if (u < 0.70) return PageTheme::kDiscography;
      if (u < 0.85) return PageTheme::kSettlement;
      return PageTheme::kGeneric;
    case extract::ObjectType::kInfobox:
      if (u < 0.55) return PageTheme::kSettlement;
      if (u < 0.75) return PageTheme::kDiscography;
      return PageTheme::kGeneric;
    case extract::ObjectType::kList:
      if (u < 0.3) return PageTheme::kAwards;
      if (u < 0.5) return PageTheme::kDiscography;
      return PageTheme::kGeneric;
  }
  return PageTheme::kGeneric;
}

}  // namespace

GoldCorpus GenerateGoldCorpus(const CorpusConfig& config) {
  GoldCorpus corpus;
  corpus.focal_type = config.focal_type;
  Rng rng(config.seed);
  for (int cap : config.strata_caps) {
    for (int p = 0; p < config.pages_per_stratum; ++p) {
      EvolverConfig evolver_config;
      evolver_config.focal_type = config.focal_type;
      evolver_config.max_focal_objects = cap;
      evolver_config.num_revisions = static_cast<int>(
          rng.UniformInt(config.min_revisions, config.max_revisions));
      evolver_config.theme = ThemeFor(config.focal_type, rng);
      evolver_config.seed = rng.engine()();
      PageEvolver evolver(evolver_config);
      corpus.pages.push_back(evolver.Generate());
      corpus.page_stratum_cap.push_back(cap);
    }
  }
  return corpus;
}

xmldump::Dump CorpusToDump(const GoldCorpus& corpus) {
  xmldump::Dump dump;
  dump.site_name = "somr-gold-corpus";
  int64_t page_id = 1;
  int64_t rev_id = 1;
  for (const GeneratedPage& page : corpus.pages) {
    xmldump::PageHistory history;
    history.title = page.title;
    history.page_id = page_id++;
    for (const GeneratedRevision& rev : page.revisions) {
      xmldump::Revision out;
      out.id = rev_id++;
      out.timestamp = rev.timestamp;
      out.contributor = rev.contributor;
      out.comment = rev.comment;
      out.text = rev.wikitext;
      history.revisions.push_back(std::move(out));
    }
    dump.pages.push_back(std::move(history));
  }
  return dump;
}

xmldump::Dump DemoDump() {
  CorpusConfig config;
  config.focal_type = extract::ObjectType::kTable;
  config.strata_caps = {3, 8};
  config.pages_per_stratum = 3;
  config.min_revisions = 25;
  config.max_revisions = 60;
  config.seed = 4;
  return CorpusToDump(GenerateGoldCorpus(config));
}

}  // namespace somr::wikigen
