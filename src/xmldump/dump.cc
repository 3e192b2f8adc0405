#include "xmldump/dump.h"

#include <cstdlib>
#include <ostream>
#include <sstream>
#include <utility>

#include "html/entities.h"
#include "xmldump/xml_reader.h"

namespace somr::xmldump {

namespace {

int64_t ParseInt(std::string_view s) {
  return std::strtoll(std::string(s).c_str(), nullptr, 10);
}

Revision ReadRevision(XmlReader& reader) {
  Revision rev;
  while (true) {
    XmlEvent e = reader.Next();
    if (e.type == XmlEventType::kEndDocument) break;
    if (e.type == XmlEventType::kEndElement && e.name == "revision") break;
    if (e.type != XmlEventType::kStartElement) continue;
    if (e.name == "id") {
      rev.id = ParseInt(reader.ReadElementText());
    } else if (e.name == "timestamp") {
      auto ts = ParseIso8601(reader.ReadElementText());
      rev.timestamp = ts.ok() ? *ts : 0;
    } else if (e.name == "contributor") {
      // <contributor><username>..</username><id>..</id></contributor>
      while (true) {
        XmlEvent ce = reader.Next();
        if (ce.type == XmlEventType::kEndDocument) break;
        if (ce.type == XmlEventType::kEndElement &&
            ce.name == "contributor") {
          break;
        }
        if (ce.type == XmlEventType::kStartElement &&
            (ce.name == "username" || ce.name == "ip")) {
          rev.contributor = reader.ReadElementText();
        } else if (ce.type == XmlEventType::kStartElement) {
          reader.SkipElement();
        }
      }
    } else if (e.name == "comment") {
      rev.comment = reader.ReadElementText();
    } else if (e.name == "model") {
      rev.model = reader.ReadElementText();
    } else if (e.name == "text") {
      rev.text = reader.ReadElementText();
    } else {
      reader.SkipElement();
    }
  }
  return rev;
}

/// Reads the children of one <page> element into `page`. Returns false
/// when the document ends before the page's </page>.
bool ReadPage(XmlReader& reader, PageHistory* page) {
  bool saw_page_id = false;
  while (true) {
    XmlEvent e = reader.Next();
    if (e.type == XmlEventType::kEndDocument) return false;
    if (e.type == XmlEventType::kEndElement && e.name == "page") return true;
    if (e.type != XmlEventType::kStartElement) continue;
    if (e.name == "title") {
      page->title = reader.ReadElementText();
    } else if (e.name == "ns") {
      page->ns = static_cast<int>(ParseInt(reader.ReadElementText()));
    } else if (e.name == "id" && !saw_page_id) {
      // The first <id> under <page> is the page id; revision ids are
      // nested inside <revision>.
      page->page_id = ParseInt(reader.ReadElementText());
      saw_page_id = true;
    } else if (e.name == "revision") {
      page->revisions.push_back(ReadRevision(reader));
    } else {
      reader.SkipElement();
    }
  }
}

}  // namespace

StatusOr<Dump> ReadDump(std::string_view xml) {
  XmlReader reader(xml);
  Dump dump;
  bool saw_root = false;
  while (true) {
    XmlEvent e = reader.Next();
    if (e.type == XmlEventType::kEndDocument) break;
    if (e.type != XmlEventType::kStartElement) continue;
    if (e.name == "mediawiki") {
      saw_root = true;
    } else if (e.name == "sitename") {
      dump.site_name = reader.ReadElementText();
    } else if (e.name == "page") {
      PageHistory page;
      if (!ReadPage(reader, &page)) {
        return Status::ParseError("unterminated <page> element");
      }
      dump.pages.push_back(std::move(page));
    } else if (e.name != "siteinfo") {
      reader.SkipElement();
    }
  }
  if (!saw_root) {
    return Status::ParseError("no <mediawiki> root element");
  }
  return dump;
}

void WriteDumpHeader(const Dump& dump, std::ostream& out) {
  out << "<mediawiki xmlns=\"http://www.mediawiki.org/xml/export-0.10/\" "
         "version=\"0.10\" xml:lang=\"en\">\n";
  out << "  <siteinfo>\n    <sitename>"
      << html::EscapeEntities(dump.site_name)
      << "</sitename>\n  </siteinfo>\n";
}

void WritePage(const PageHistory& page, std::ostream& out) {
  out << "  <page>\n";
  out << "    <title>" << html::EscapeEntities(page.title)
      << "</title>\n";
  out << "    <ns>" << page.ns << "</ns>\n";
  out << "    <id>" << page.page_id << "</id>\n";
  for (const Revision& rev : page.revisions) {
    out << "    <revision>\n";
    out << "      <id>" << rev.id << "</id>\n";
    out << "      <timestamp>" << FormatIso8601(rev.timestamp)
        << "</timestamp>\n";
    out << "      <contributor><username>"
        << html::EscapeEntities(rev.contributor)
        << "</username></contributor>\n";
    if (!rev.comment.empty()) {
      out << "      <comment>" << html::EscapeEntities(rev.comment)
          << "</comment>\n";
    }
    out << "      <model>" << html::EscapeEntities(rev.model)
        << "</model>\n";
    out << "      <format>text/x-wiki</format>\n";
    out << "      <text bytes=\"" << rev.text.size() << "\">"
        << html::EscapeEntities(rev.text) << "</text>\n";
    out << "    </revision>\n";
  }
  out << "  </page>\n";
}

void WriteDumpFooter(std::ostream& out) { out << "</mediawiki>\n"; }

std::string WriteDump(const Dump& dump) {
  std::ostringstream out;
  WriteDumpHeader(dump, out);
  for (const PageHistory& page : dump.pages) {
    WritePage(page, out);
  }
  WriteDumpFooter(out);
  return std::move(out).str();
}

}  // namespace somr::xmldump
