#include "xmark/paintings.h"

#include <map>

#include "common/rng.h"
#include "common/strings.h"
#include "xml/serializer.h"

namespace webdex::xmark {
namespace {

using NodeRef = xml::DocumentBuilder::NodeRef;

struct Painter {
  const char* first;
  const char* last;
};

const Painter kPainters[] = {
    {"Eugene", "Delacroix"}, {"Edouard", "Manet"},   {"Claude", "Monet"},
    {"Berthe", "Morisot"},   {"Camille", "Pissarro"}, {"Gustave", "Courbet"},
    {"Edgar", "Degas"},      {"Paul", "Cezanne"},     {"Mary", "Cassatt"},
    {"Alfred", "Sisley"}};

// "Lion" is deliberately absent: only painting #0 ("The Lion Hunt")
// matches contains(Lion), making q3 a point query as in the paper.
const char* kSubjects[] = {"Meadow", "Harbor", "Garden", "Bridge", "River",
                           "Winter", "Dancer", "Portrait", "Cliff", "Poppy"};

const char* kKinds[] = {"Hunt", "Scene", "Study", "Morning", "Evening"};

const char* kMuseums[] = {"Louvre",  "Orsay",   "Prado",
                          "Uffizi",  "Hermitage", "Rijksmuseum",
                          "National", "Metropolitan"};

const char* Pick(Rng& rng) {
  return kSubjects[rng.NextBelow(std::size(kSubjects))];
}
const char* PickKind(Rng& rng) {
  return kKinds[rng.NextBelow(std::size(kKinds))];
}

std::string BuildPainting(int index, Rng& rng, std::map<int, int>* per_year,
                          std::string* id_out) {
  const Painter& painter =
      kPainters[static_cast<size_t>(index) % std::size(kPainters)];
  int year;
  std::string name;
  if (index == 0) {
    year = 1854;
    name = "The Lion Hunt";
  } else if (index == 1) {
    year = 1863;
    name = "Olympia";
  } else {
    year = static_cast<int>(rng.NextInRange(1840, 1900));
    name = StrFormat("The %s %s", Pick(rng), PickKind(rng));
  }
  // Paper Figure 3 ids are year-scoped counters: "1854-1", "1863-1".
  const int ordinal = ++(*per_year)[year];
  const std::string id = StrFormat("%d-%d", year, ordinal);
  *id_out = id;
  xml::DocumentBuilder tree("painting");
  const NodeRef painting = tree.root();
  painting->AddAttribute("id", id);
  painting->AddElement("name")->AddText(name);
  NodeRef painter_el = painting->AddElement("painter");
  NodeRef pname = painter_el->AddElement("name");
  pname->AddElement("first")->AddText(painter.first);
  pname->AddElement("last")->AddText(painter.last);
  painting->AddElement("year")->AddText(StrFormat("%d", year));
  painting->AddElement("description")
      ->AddText(StrFormat("A %s oil on canvas painted in %d",
                          index % 2 == 0 ? "celebrated" : "striking", year));
  const xml::Document doc = tree.Finish({}, 0);
  return xml::Serialize(doc, doc.root());
}

}  // namespace

std::vector<GeneratedDocument> Figure3Documents() {
  std::vector<GeneratedDocument> docs(2);
  docs[0].uri = "delacroix.xml";
  docs[0].text =
      "<painting id=\"1854-1\">"
      "<name>The Lion Hunt</name>"
      "<painter><name><first>Eugene</first><last>Delacroix</last></name>"
      "</painter></painting>";
  docs[1].uri = "manet.xml";
  docs[1].text =
      "<painting id=\"1863-1\">"
      "<name>Olympia</name>"
      "<painter><name><first>Edouard</first><last>Manet</last></name>"
      "</painter></painting>";
  return docs;
}

std::vector<GeneratedDocument> GeneratePaintings(
    const PaintingsConfig& config) {
  Rng rng(config.seed);
  std::vector<GeneratedDocument> docs;
  std::vector<std::string> painting_ids;
  std::map<int, int> per_year;
  for (int i = 0; i < config.num_paintings; ++i) {
    GeneratedDocument doc;
    std::string id;
    doc.text = BuildPainting(i, rng, &per_year, &id);
    doc.uri = StrFormat("painting-%03d.xml", i);
    painting_ids.push_back(id);
    docs.push_back(std::move(doc));
  }
  for (int m = 0; m < config.num_museums; ++m) {
    xml::DocumentBuilder tree("museum");
    const NodeRef museum = tree.root();
    museum->AddElement("name")->AddText(
        StrFormat("%s Museum",
                  kMuseums[static_cast<size_t>(m) % std::size(kMuseums)]));
    museum->AddElement("city")->AddText(m % 2 == 0 ? "Paris" : "Genoa");
    // Each museum exposes a slice of the paintings (with overlap).
    for (size_t p = static_cast<size_t>(m); p < painting_ids.size();
         p += static_cast<size_t>(config.num_museums)) {
      museum->AddElement("painting")->AddAttribute("id", painting_ids[p]);
    }
    GeneratedDocument doc;
    doc.uri = StrFormat("museum-%02d.xml", m);
    const xml::Document dom = tree.Finish(doc.uri, 0);
    doc.text = xml::Serialize(dom, dom.root());
    docs.push_back(std::move(doc));
  }
  return docs;
}

}  // namespace webdex::xmark
