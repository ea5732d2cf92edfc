#include "xmark/xmark_generator.h"

#include <cmath>

#include "common/strings.h"
#include "xml/serializer.h"

namespace webdex::xmark {
namespace {

using NodeRef = xml::DocumentBuilder::NodeRef;

const char* kRegions[] = {"africa",   "asia",     "australia",
                          "europe",   "namerica", "samerica"};

const char* kFirstNames[] = {
    "Edouard", "Eugene",  "Claude",  "Berthe",  "Camille", "Gustave",
    "Henri",   "Paul",    "Mary",    "Edgar",   "Pierre",  "Alfred",
    "Frederic","Vincent", "Georges", "Odilon",  "Suzanne", "Marie",
    "Jean",    "Auguste", "Rosa",    "Leon",    "Felix",   "Armand"};

const char* kLastNames[] = {
    "Manet",    "Delacroix", "Monet",   "Morisot",  "Pissarro", "Courbet",
    "Matisse",  "Cezanne",   "Cassatt", "Degas",    "Renoir",   "Sisley",
    "Bazille",  "Gogh",      "Seurat",  "Redon",    "Valadon",  "Laurencin",
    "Ingres",   "Rodin",     "Bonheur", "Bonnat",   "Vallotton","Guillaumin"};

const char* kCities[] = {"Paris",  "Genoa",  "Lyon",    "Tokyo", "Sydney",
                         "Lagos",  "Lima",   "Boston",  "Delhi", "Cairo",
                         "Turin",  "Oslo",   "Quito",   "Accra", "Kyoto"};

const char* kCountries[] = {"France", "Italy", "Japan",  "Australia",
                            "Nigeria", "Peru",  "UnitedStates", "India",
                            "Egypt",  "Norway", "Ecuador", "Ghana"};

// Closed prose vocabulary.  Ordered from common to rare; the quadratic
// skew in PickWord makes late entries genuinely rare, giving workload
// designers `contains` constants of known selectivity (e.g. "gloaming").
const char* kVocabulary[] = {
    "the",      "and",      "of",        "with",     "for",      "from",
    "auction",  "item",     "offer",     "price",    "great",    "good",
    "quality",  "ship",     "world",     "buyer",    "seller",   "market",
    "trade",    "gold",     "silver",    "wood",     "stone",    "glass",
    "canvas",   "paint",    "brush",     "color",    "light",    "shadow",
    "portrait", "landscape","river",     "garden",   "harbor",   "bridge",
    "winter",   "summer",   "spring",    "autumn",   "morning",  "evening",
    "ancient",  "modern",   "rare",      "fine",     "grand",    "small",
    "large",    "painted",  "carved",    "woven",    "printed",  "signed",
    "dated",    "framed",   "restored",  "original", "copy",     "master",
    "school",   "studio",   "gallery",   "museum",   "estate",   "private",
    "lion",     "horse",    "eagle",     "serpent",  "olive",    "laurel",
    "marble",   "bronze",   "ivory",     "amber",    "velvet",   "silk",
    "merchant", "voyage",   "caravan",   "compass",  "lantern",  "anchor",
    "scarlet",  "azure",    "emerald",   "crimson",  "ochre",    "umber",
    "sonnet",   "ballad",   "fresco",    "etching",  "gouache",  "pastel",
    "tempest",  "zephyr",   "aurora",    "eclipse",  "meridian", "solstice",
    "labyrinth","obelisk",  "citadel",   "bastion",  "rampart",  "parapet",
    "gossamer", "filigree", "arabesque", "chiaroscuro", "palimpsest",
    "gloaming", "susurrus", "petrichor", "halcyon",  "vellichor"};

constexpr size_t kVocabularySize =
    sizeof(kVocabulary) / sizeof(kVocabulary[0]);

template <size_t N>
const char* Pick(Rng& rng, const char* (&table)[N]) {
  return table[rng.NextBelow(N)];
}

// Two-tier skew: 85% of draws come from the 30 most common entries, the
// rest uniformly from the whole vocabulary.  This keeps rare words
// genuinely rare (~0.14% of draws each), so full-text predicates have
// document-level selectivity even on fragment documents.
const char* PickWord(Rng& rng) {
  if (rng.NextBool(0.85)) {
    return kVocabulary[rng.NextBelow(30)];
  }
  return kVocabulary[rng.NextBelow(kVocabularySize)];
}

std::string Sentence(Rng& rng, int min_words, int max_words) {
  const int n = static_cast<int>(rng.NextInRange(min_words, max_words));
  std::string out;
  for (int i = 0; i < n; ++i) {
    if (i > 0) out.push_back(' ');
    out.append(PickWord(rng));
  }
  return out;
}

std::string DateString(Rng& rng) {
  return StrFormat("%02lld/%02lld/%lld", (long long)rng.NextInRange(1, 12),
                   (long long)rng.NextInRange(1, 28),
                   (long long)rng.NextInRange(1998, 2003));
}

/// Builder for one document; holds the per-document deterministic stream
/// and the global entity-count context used for cross-document
/// references (value joins resolve across documents, Section 5.5).
class DocBuilder {
 public:
  DocBuilder(const GeneratorConfig& config, int index, Rng rng)
      : config_(config),
        index_(index),
        rng_(std::move(rng)),
        mutate_paths_(rng_.NextBool(config.path_mutation_fraction)),
        mutate_optionals_(rng_.NextBool(config.optional_mutation_fraction)) {
    total_items_ = static_cast<long long>(config.num_documents) *
                   std::max(1, config.entities_per_document / 3);
    total_people_ = total_items_;
    total_auctions_ = std::max<long long>(
        1, static_cast<long long>(config.num_documents) *
               std::max(1, config.entities_per_document / 6));
  }

  xml::DocumentBuilder Build() {
    xml::DocumentBuilder builder("site");
    const NodeRef site = builder.root();
    const int entities = std::max(2, config_.entities_per_document);
    if (config_.split_sections) {
      // Fragment document: one section only, like XMark's split output.
      // Weights approximate the share each section has of a full XMark
      // document.
      const size_t kind =
          rng_.NextWeighted({0.35, 0.25, 0.20, 0.15, 0.05});
      switch (kind) {
        case 0:
          BuildRegions(site, entities);
          break;
        case 1:
          BuildPeople(site, entities);
          break;
        case 2:
          BuildOpenAuctions(site, entities);
          break;
        case 3:
          BuildClosedAuctions(site, entities);
          break;
        default:
          BuildCategories(site, std::max(2, entities / 2));
          break;
      }
      return builder;
    }
    BuildRegions(site, std::max(1, entities / 3));
    BuildPeople(site, std::max(1, entities / 3));
    BuildOpenAuctions(site, std::max(1, entities / 6));
    BuildClosedAuctions(site, std::max(1, entities / 6));
    BuildCategories(site, 2);
    return builder;
  }

 private:
  // True when this (mutated-optionals) document drops an optional child.
  bool Drop() {
    return mutate_optionals_ && rng_.NextBool(config_.drop_probability);
  }

  std::string GlobalItemId(long long n) { return StrFormat("item%lld", n); }
  std::string GlobalPersonId(long long n) {
    return StrFormat("person%lld", n);
  }
  std::string GlobalAuctionId(long long n) {
    return StrFormat("open_auction%lld", n);
  }

  long long LocalOrdinal(int i, long long per_doc_share) {
    // Entities this document "owns" occupy a deterministic slice of the
    // global ID space, so references from other documents can hit them.
    return static_cast<long long>(index_) * per_doc_share + i;
  }

  void BuildRegions(NodeRef site, int item_count) {
    NodeRef regions = site->AddElement("regions");
    NodeRef region = regions->AddElement(Pick(rng_, kRegions));
    const long long share =
        std::max(1, config_.entities_per_document / 3);
    for (int i = 0; i < item_count; ++i) {
      NodeRef item = region->AddElement("item");
      item->AddAttribute("id",
                         GlobalItemId(LocalOrdinal(i, share) % total_items_));
      if (!Drop()) {
        NodeRef location = item->AddElement("location");
        location->AddText(Pick(rng_, kCities));
      }
      if (!Drop()) {
        item->AddElement("quantity")
            ->AddText(StrFormat("%lld", (long long)rng_.NextInRange(1, 10)));
      }
      // Path mutation: `name` nested under `description` instead of being
      // a direct child of `item` (labels preserved, path changed).
      NodeRef name_parent = item;
      NodeRef description = item->AddElement("description");
      if (mutate_paths_) name_parent = description;
      name_parent->AddElement("name")->AddText(Sentence(rng_, 2, 4));
      description->AddText(Sentence(rng_, 8, 30));
      if (!Drop()) {
        item->AddElement("payment")->AddText(Sentence(rng_, 1, 3));
      }
      if (!Drop()) {
        item->AddElement("shipping")->AddText(Sentence(rng_, 1, 4));
      }
      const int categories = static_cast<int>(rng_.NextInRange(1, 3));
      for (int c = 0; c < categories; ++c) {
        item->AddElement("incategory")
            ->AddAttribute("category",
                           StrFormat("category%lld",
                                     (long long)rng_.NextInRange(0, 99)));
      }
      if (!Drop()) {
        NodeRef mail_parent = item;
        if (!mutate_paths_) {
          mail_parent = item->AddElement("mailbox");
        }
        // Path mutation: mails attach directly under item.
        const int mails = static_cast<int>(rng_.NextInRange(0, 3));
        for (int m = 0; m < mails; ++m) {
          NodeRef mail = mail_parent->AddElement("mail");
          mail->AddElement("from")->AddText(
              StrFormat("%s %s", Pick(rng_, kFirstNames),
                        Pick(rng_, kLastNames)));
          mail->AddElement("to")->AddText(
              StrFormat("%s %s", Pick(rng_, kFirstNames),
                        Pick(rng_, kLastNames)));
          mail->AddElement("date")->AddText(DateString(rng_));
          mail->AddElement("text")->AddText(Sentence(rng_, 4, 16));
        }
      }
    }
  }

  void BuildPeople(NodeRef site, int person_count) {
    NodeRef people = site->AddElement("people");
    const long long share =
        std::max(1, config_.entities_per_document / 3);
    for (int i = 0; i < person_count; ++i) {
      NodeRef person = people->AddElement("person");
      person->AddAttribute(
          "id", GlobalPersonId(LocalOrdinal(i, share) % total_people_));
      NodeRef name = person->AddElement("name");
      name->AddText(StrFormat("%s %s", Pick(rng_, kFirstNames),
                              Pick(rng_, kLastNames)));
      person->AddElement("emailaddress")
          ->AddText(StrFormat("mailto:user%lld@auction.example",
                              (long long)rng_.NextInRange(0, 99999)));
      if (!Drop()) {
        person->AddElement("phone")->AddText(
            StrFormat("+%lld (%lld) %lld", (long long)rng_.NextInRange(1, 99),
                      (long long)rng_.NextInRange(100, 999),
                      (long long)rng_.NextInRange(1000000, 9999999)));
      }
      if (!Drop()) {
        NodeRef address = person->AddElement("address");
        address->AddElement("street")
            ->AddText(StrFormat("%lld %s St",
                                (long long)rng_.NextInRange(1, 99),
                                PickWord(rng_)));
        // Path mutation: city directly under person, not under address.
        NodeRef city_parent = mutate_paths_ ? person : address;
        city_parent->AddElement("city")->AddText(Pick(rng_, kCities));
        address->AddElement("country")->AddText(Pick(rng_, kCountries));
        address->AddElement("zipcode")
            ->AddText(StrFormat("%lld", (long long)rng_.NextInRange(10000,
                                                                    99999)));
      }
      if (!Drop()) {
        person->AddElement("homepage")
            ->AddText(StrFormat("http://example.org/~user%lld",
                                (long long)rng_.NextInRange(0, 99999)));
      }
      if (!Drop()) {
        person->AddElement("creditcard")
            ->AddText(StrFormat("%lld %lld %lld %lld",
                                (long long)rng_.NextInRange(1000, 9999),
                                (long long)rng_.NextInRange(1000, 9999),
                                (long long)rng_.NextInRange(1000, 9999),
                                (long long)rng_.NextInRange(1000, 9999)));
      }
      NodeRef profile = person->AddElement("profile");
      profile->AddAttribute(
          "income",
          StrFormat("%.2f", 20000 + rng_.NextDouble() * 80000));
      const int interests = static_cast<int>(rng_.NextInRange(0, 3));
      for (int c = 0; c < interests; ++c) {
        profile->AddElement("interest")->AddAttribute(
            "category",
            StrFormat("category%lld", (long long)rng_.NextInRange(0, 99)));
      }
      if (!Drop()) {
        profile->AddElement("education")->AddText(
            rng_.NextBool(0.5) ? "Graduate School" : "College");
      }
      if (!Drop()) {
        profile->AddElement("gender")->AddText(
            rng_.NextBool(0.5) ? "male" : "female");
      }
      if (!Drop()) {
        profile->AddElement("age")->AddText(
            StrFormat("%lld", (long long)rng_.NextInRange(18, 80)));
      }
      const int watches = static_cast<int>(rng_.NextInRange(0, 2));
      if (watches > 0) {
        NodeRef watchlist = person->AddElement("watches");
        for (int w = 0; w < watches; ++w) {
          watchlist->AddElement("watch")->AddAttribute(
              "open_auction",
              GlobalAuctionId(
                  (long long)rng_.NextBelow(
                      static_cast<uint64_t>(total_auctions_))));
        }
      }
    }
  }

  NodeRef AddAnnotation(NodeRef parent) {
    NodeRef annotation = parent->AddElement("annotation");
    annotation->AddElement("author")->AddAttribute(
        "person", GlobalPersonId((long long)rng_.NextBelow(
                      static_cast<uint64_t>(total_people_))));
    annotation->AddElement("description")->AddText(Sentence(rng_, 5, 20));
    annotation->AddElement("happiness")
        ->AddText(StrFormat("%lld", (long long)rng_.NextInRange(1, 10)));
    return annotation;
  }

  void BuildOpenAuctions(NodeRef site, int count) {
    NodeRef auctions = site->AddElement("open_auctions");
    const long long share =
        std::max(1, config_.entities_per_document / 6);
    for (int i = 0; i < count; ++i) {
      NodeRef auction = auctions->AddElement("open_auction");
      auction->AddAttribute(
          "id", GlobalAuctionId(LocalOrdinal(i, share) % total_auctions_));
      auction->AddElement("initial")->AddText(
          StrFormat("%.2f", 10 + rng_.NextDouble() * 300));
      if (!Drop()) {
        auction->AddElement("reserve")
            ->AddText(StrFormat("%.2f", 50 + rng_.NextDouble() * 1000));
      }
      const int bidders = static_cast<int>(rng_.NextInRange(0, 4));
      for (int b = 0; b < bidders; ++b) {
        NodeRef bidder = auction->AddElement("bidder");
        bidder->AddElement("date")->AddText(DateString(rng_));
        bidder->AddElement("time")->AddText(
            StrFormat("%02lld:%02lld:%02lld",
                      (long long)rng_.NextInRange(0, 23),
                      (long long)rng_.NextInRange(0, 59),
                      (long long)rng_.NextInRange(0, 59)));
        bidder->AddElement("personref")
            ->AddAttribute("person",
                           GlobalPersonId((long long)rng_.NextBelow(
                               static_cast<uint64_t>(total_people_))));
        bidder->AddElement("increase")
            ->AddText(StrFormat("%.2f", 1 + rng_.NextDouble() * 50));
      }
      if (!Drop()) {
        auction->AddElement("current")
            ->AddText(StrFormat("%.2f", 10 + rng_.NextDouble() * 2000));
      }
      if (!Drop()) auction->AddElement("privacy")->AddText("Yes");
      // Path mutation: itemref under annotation instead of the auction.
      NodeRef itemref_parent = auction;
      auction->AddElement("seller")->AddAttribute(
          "person", GlobalPersonId((long long)rng_.NextBelow(
                        static_cast<uint64_t>(total_people_))));
      const NodeRef annotation = AddAnnotation(auction);
      if (mutate_paths_) itemref_parent = annotation;
      itemref_parent->AddElement("itemref")->AddAttribute(
          "item", GlobalItemId((long long)rng_.NextBelow(
                      static_cast<uint64_t>(total_items_))));
      auction->AddElement("quantity")
          ->AddText(StrFormat("%lld", (long long)rng_.NextInRange(1, 10)));
      auction->AddElement("type")->AddText(
          rng_.NextBool(0.5) ? "Regular" : "Featured");
      if (!Drop()) {
        NodeRef interval = auction->AddElement("interval");
        interval->AddElement("start")->AddText(DateString(rng_));
        interval->AddElement("end")->AddText(DateString(rng_));
      }
    }
  }

  void BuildClosedAuctions(NodeRef site, int count) {
    NodeRef auctions = site->AddElement("closed_auctions");
    for (int i = 0; i < count; ++i) {
      NodeRef auction = auctions->AddElement("closed_auction");
      auction->AddElement("seller")->AddAttribute(
          "person", GlobalPersonId((long long)rng_.NextBelow(
                        static_cast<uint64_t>(total_people_))));
      auction->AddElement("buyer")->AddAttribute(
          "person", GlobalPersonId((long long)rng_.NextBelow(
                        static_cast<uint64_t>(total_people_))));
      auction->AddElement("itemref")->AddAttribute(
          "item", GlobalItemId((long long)rng_.NextBelow(
                      static_cast<uint64_t>(total_items_))));
      auction->AddElement("price")->AddText(
          StrFormat("%.2f", 10 + rng_.NextDouble() * 5000));
      auction->AddElement("date")->AddText(DateString(rng_));
      auction->AddElement("quantity")
          ->AddText(StrFormat("%lld", (long long)rng_.NextInRange(1, 10)));
      auction->AddElement("type")->AddText(
          rng_.NextBool(0.5) ? "Regular" : "Featured");
      if (!Drop()) AddAnnotation(auction);
    }
  }

  void BuildCategories(NodeRef site, int count) {
    NodeRef categories = site->AddElement("categories");
    for (int i = 0; i < count; ++i) {
      NodeRef category = categories->AddElement("category");
      category->AddAttribute(
          "id", StrFormat("category%lld", (long long)rng_.NextInRange(0, 99)));
      category->AddElement("name")->AddText(Sentence(rng_, 1, 2));
      category->AddElement("description")->AddText(Sentence(rng_, 4, 12));
    }
  }

  const GeneratorConfig& config_;
  int index_;
  Rng rng_;
  bool mutate_paths_;
  bool mutate_optionals_;
  long long total_items_ = 1;
  long long total_people_ = 1;
  long long total_auctions_ = 1;
};

}  // namespace

XmarkGenerator::XmarkGenerator(const GeneratorConfig& config)
    : config_(config) {}

const std::vector<std::string>& XmarkGenerator::Vocabulary() {
  static const std::vector<std::string>* vocab = [] {
    auto* v = new std::vector<std::string>;
    for (const char* w : kVocabulary) v->push_back(w);
    return v;
  }();
  return *vocab;
}

xml::Document XmarkGenerator::GenerateDom(int index) const {
  Rng rng(config_.seed ^
          (static_cast<uint64_t>(index) * 0x9E3779B97F4A7C15ULL + 1));
  DocBuilder builder(config_, index, std::move(rng));
  const xml::DocumentBuilder tree = builder.Build();
  std::string uri = StrFormat("xmark-%06d.xml", index);
  // The document's size metric is its serialized size.
  const xml::Document unsized = tree.Finish(uri, 0);
  const size_t size = xml::Serialize(unsized, unsized.root()).size();
  return tree.Finish(std::move(uri), size);
}

GeneratedDocument XmarkGenerator::Generate(int index) const {
  Rng rng(config_.seed ^
          (static_cast<uint64_t>(index) * 0x9E3779B97F4A7C15ULL + 1));
  DocBuilder builder(config_, index, std::move(rng));
  GeneratedDocument out;
  out.uri = StrFormat("xmark-%06d.xml", index);
  out.text = xml::Serialize(builder.Build().Finish(out.uri, 0));
  return out;
}

std::vector<GeneratedDocument> XmarkGenerator::GenerateAll() const {
  std::vector<GeneratedDocument> docs;
  docs.reserve(static_cast<size_t>(config_.num_documents));
  for (int i = 0; i < config_.num_documents; ++i) {
    docs.push_back(Generate(i));
  }
  return docs;
}

}  // namespace webdex::xmark
