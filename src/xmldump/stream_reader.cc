#include "xmldump/stream_reader.h"

#include <string_view>

#include "xmldump/xml_reader.h"

namespace somr::xmldump {

namespace {
constexpr size_t kChunkSize = 1 << 16;
constexpr const char* kRootOpen = "<mediawiki";
constexpr const char* kPageOpen = "<page>";
constexpr const char* kPageClose = "</page>";
}  // namespace

size_t PageStreamReader::FindMarker(const std::string& marker,
                                    size_t start) {
  while (true) {
    size_t pos = buffer_.find(marker, start);
    if (pos != std::string::npos) return pos;
    if (!input_.good()) return std::string::npos;
    // Read more; keep a tail overlap so a marker split across chunk
    // boundaries is still found.
    size_t old_size = buffer_.size();
    buffer_.resize(old_size + kChunkSize);
    input_.read(buffer_.data() + old_size,
                static_cast<std::streamsize>(kChunkSize));
    buffer_.resize(old_size + static_cast<size_t>(input_.gcount()));
    if (buffer_.size() == old_size) return std::string::npos;  // EOF
    start = old_size >= marker.size() ? old_size - marker.size() + 1 : 0;
  }
}

std::optional<PageHistory> PageStreamReader::NextPage() {
  if (done_) return std::nullopt;

  size_t open = FindMarker(kPageOpen, 0);
  if (!root_seen_) {
    // Everything before the first <page> (or the whole input, when there
    // is none) is still buffered: a dump opens with its <mediawiki> root.
    const size_t prefix = open == std::string::npos ? buffer_.size() : open;
    if (std::string_view(buffer_).substr(0, prefix).find(kRootOpen) ==
        std::string_view::npos) {
      done_ = true;
      status_ = Status::ParseError("no <mediawiki> root element");
      return std::nullopt;
    }
    root_seen_ = true;
  }
  if (open == std::string::npos) {
    done_ = true;
    return std::nullopt;  // clean EOF: no more pages
  }
  size_t close = FindMarker(kPageClose, open);
  if (close == std::string::npos) {
    done_ = true;
    status_ = Status::ParseError("unterminated <page> element");
    return std::nullopt;
  }
  size_t end = close + std::char_traits<char>::length(kPageClose);
  // Parse the single page block through the regular dump reader by
  // wrapping it in a minimal root.
  std::string xml = "<mediawiki>";
  xml.append(buffer_, open, end - open);
  xml.append("</mediawiki>");
  buffer_.erase(0, end);

  StatusOr<Dump> dump = ReadDump(xml);
  if (!dump.ok()) {
    done_ = true;
    status_ = dump.status();
    return std::nullopt;
  }
  if (dump->pages.empty()) {
    done_ = true;
    status_ = Status::ParseError("page block parsed to nothing");
    return std::nullopt;
  }
  ++pages_read_;
  return std::move(dump->pages.front());
}

}  // namespace somr::xmldump
