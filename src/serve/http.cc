#include "serve/http.h"

#include <algorithm>
#include <cctype>

namespace somr::serve {

namespace {

const std::string kEmpty;

std::string ToLower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

/// Splits a header block (terminator already removed) into lines,
/// tolerating both CRLF and bare LF endings.
std::vector<std::string_view> HeaderLines(std::string_view block) {
  std::vector<std::string_view> lines;
  size_t start = 0;
  while (start < block.size()) {
    size_t nl = block.find('\n', start);
    if (nl == std::string_view::npos) nl = block.size();
    std::string_view line = block.substr(start, nl - start);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (!line.empty()) lines.push_back(line);
    start = nl + 1;
  }
  return lines;
}

/// Finds the end of the header block in `buffer`: the index one past the
/// blank line, or npos. Accepts CRLFCRLF and LFLF.
size_t HeaderBlockEnd(const std::string& buffer) {
  size_t crlf = buffer.find("\r\n\r\n");
  size_t lf = buffer.find("\n\n");
  if (crlf == std::string::npos) {
    return lf == std::string::npos ? std::string::npos : lf + 2;
  }
  if (lf != std::string::npos && lf + 2 < crlf + 4) return lf + 2;
  return crlf + 4;
}

/// Parses "name: value" lines into `out`; returns false on a malformed
/// line. Names are lower-cased.
bool ParseHeaderFields(
    const std::vector<std::string_view>& lines, size_t first,
    std::vector<std::pair<std::string, std::string>>* out) {
  for (size_t i = first; i < lines.size(); ++i) {
    size_t colon = lines[i].find(':');
    if (colon == std::string_view::npos || colon == 0) return false;
    out->emplace_back(ToLower(std::string(Trim(lines[i].substr(0, colon)))),
                      std::string(Trim(lines[i].substr(colon + 1))));
  }
  return true;
}

const std::string& HeaderValue(
    const std::vector<std::pair<std::string, std::string>>& headers,
    const std::string& name) {
  for (const auto& [key, value] : headers) {
    if (key == name) return value;
  }
  return kEmpty;
}

/// Parses a non-negative decimal; false on overflow/garbage.
bool ParseSize(std::string_view s, size_t* out) {
  if (s.empty()) return false;
  size_t value = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    if (value > (SIZE_MAX - 9) / 10) return false;
    value = value * 10 + static_cast<size_t>(c - '0');
  }
  *out = value;
  return true;
}

/// Parses a chunk-size line: hex digits, optional ";extension".
bool ParseChunkSize(std::string_view line, size_t* out) {
  line = Trim(line);
  size_t semi = line.find(';');
  if (semi != std::string_view::npos) line = Trim(line.substr(0, semi));
  if (line.empty() || line.size() > 16) return false;
  size_t value = 0;
  for (char c : line) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = c - 'A' + 10;
    } else {
      return false;
    }
    value = value * 16 + static_cast<size_t>(digit);
  }
  *out = value;
  return true;
}

}  // namespace

const std::string& HttpRequest::Header(const std::string& name) const {
  return HeaderValue(headers, name);
}

const char* HttpStatusReason(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 202:
      return "Accepted";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 413:
      return "Payload Too Large";
    case 500:
      return "Internal Server Error";
    case 503:
      return "Service Unavailable";
    default:
      return "Unknown";
  }
}

std::string SerializeResponse(const HttpResponse& response) {
  std::string out = "HTTP/1.1 ";
  out += std::to_string(response.status);
  out += ' ';
  out += HttpStatusReason(response.status);
  out += "\r\nContent-Type: ";
  out += response.content_type;
  for (const auto& header : response.extra_headers) {
    out += "\r\n";
    out += header.first;
    out += ": ";
    out += header.second;
  }
  out += "\r\nContent-Length: ";
  out += std::to_string(response.body.size());
  out += "\r\nConnection: ";
  out += response.close_connection ? "close" : "keep-alive";
  out += "\r\n\r\n";
  out += response.body;
  return out;
}

// --- HttpMessageParser -----------------------------------------------------

void HttpMessageParser::Fail(std::string message) {
  state_ = State::kError;
  error_ = std::move(message);
}

void HttpMessageParser::ResetFraming() {
  state_ = State::kHeaders;
  buffer_.clear();
  error_.clear();
  body_remaining_ = 0;
  chunk_padding_ = 0;
}

void HttpMessageParser::ParseHeaderBlock() {
  std::vector<std::string_view> lines = HeaderLines(buffer_);
  if (lines.empty()) {
    Fail("empty message");
    return;
  }
  if (!ParseStartLine(lines[0])) return;
  HeaderList& headers = MutableHeaders();
  if (!ParseHeaderFields(lines, 1, &headers)) {
    Fail("malformed header line");
    return;
  }

  const std::string te = ToLower(HeaderValue(headers, "transfer-encoding"));
  const std::string& cl = HeaderValue(headers, "content-length");
  if (!te.empty()) {
    if (te != "chunked") {
      Fail("unsupported transfer-encoding: " + te);
      return;
    }
    state_ = State::kChunkHeader;
  } else if (!cl.empty()) {
    size_t length = 0;
    if (!ParseSize(cl, &length)) {
      Fail("invalid content-length");
      return;
    }
    if (length > limits_.max_body_bytes) {
      Fail("body exceeds limit");
      return;
    }
    body_remaining_ = length;
    state_ = length == 0 ? State::kDone : State::kBody;
  } else {
    // No framing headers: an empty body (the client never sends requests
    // whose responses are EOF-delimited).
    state_ = State::kDone;
  }
  buffer_.clear();
}

size_t HttpMessageParser::Feed(const char* data, size_t size) {
  std::string& body = MutableBody();
  size_t used = 0;
  while (used < size && state_ != State::kDone && state_ != State::kError) {
    switch (state_) {
      case State::kHeaders: {
        // Accumulate until the blank line; cap the header block.
        size_t take = std::min(size - used,
                               limits_.max_header_bytes + 4 - buffer_.size());
        buffer_.append(data + used, take);
        size_t end = HeaderBlockEnd(buffer_);
        if (end == std::string::npos) {
          used += take;
          if (buffer_.size() >= limits_.max_header_bytes) {
            Fail("header block exceeds limit");
          }
          break;
        }
        // Give back the bytes past the header block.
        used += take - (buffer_.size() - end);
        buffer_.resize(end);
        ParseHeaderBlock();
        break;
      }
      case State::kBody: {
        size_t take = std::min(size - used, body_remaining_);
        body.append(data + used, take);
        used += take;
        body_remaining_ -= take;
        if (body_remaining_ == 0) state_ = State::kDone;
        break;
      }
      case State::kChunkHeader: {
        // One framing line; torn reads may deliver it byte by byte.
        buffer_.push_back(data[used++]);
        if (buffer_.size() > 64) {
          Fail("chunk-size line exceeds limit");
          break;
        }
        if (buffer_.back() != '\n') break;
        buffer_.pop_back();  // Trim handles the \r, not the \n
        std::string_view line(buffer_);
        // Skip the CRLF separating the previous chunk's data, delivered
        // as a blank line here when chunk_padding_ marks it pending.
        if (chunk_padding_ > 0 && Trim(line).empty()) {
          chunk_padding_ = 0;
          buffer_.clear();
          break;
        }
        size_t chunk = 0;
        if (!ParseChunkSize(line, &chunk)) {
          Fail("malformed chunk size");
          break;
        }
        buffer_.clear();
        if (chunk == 0) {
          state_ = State::kChunkTrailer;
          break;
        }
        // Subtraction form: body.size() never exceeds the limit (earlier
        // checks enforce it), and `chunk` can be up to SIZE_MAX, so the
        // additive form could wrap and bypass the cap.
        if (chunk > limits_.max_body_bytes - body.size()) {
          Fail("body exceeds limit");
          break;
        }
        body_remaining_ = chunk;
        state_ = State::kChunkData;
        break;
      }
      case State::kChunkData: {
        size_t take = std::min(size - used, body_remaining_);
        body.append(data + used, take);
        used += take;
        body_remaining_ -= take;
        if (body_remaining_ == 0) {
          chunk_padding_ = 1;  // the CRLF before the next size line
          state_ = State::kChunkHeader;
        }
        break;
      }
      case State::kChunkTrailer: {
        buffer_.push_back(data[used++]);
        if (buffer_.size() > limits_.max_header_bytes) {
          Fail("chunk trailer exceeds limit");
          break;
        }
        if (buffer_.back() != '\n') break;
        buffer_.pop_back();
        if (Trim(std::string_view(buffer_)).empty()) {
          state_ = State::kDone;  // blank line ends the trailer
        }
        buffer_.clear();
        break;
      }
      case State::kDone:
      case State::kError:
        break;
    }
  }
  return used;
}

// --- HttpRequestParser -----------------------------------------------------

void HttpRequestParser::Reset() {
  ResetFraming();
  request_ = HttpRequest{};
}

bool HttpRequestParser::ParseStartLine(std::string_view line) {
  // METHOD SP target SP HTTP/x.y
  size_t sp1 = line.find(' ');
  size_t sp2 = sp1 == std::string_view::npos ? std::string_view::npos
                                             : line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos ||
      line.find(' ', sp2 + 1) != std::string_view::npos) {
    Fail("malformed request line");
    return false;
  }
  request_.method = std::string(line.substr(0, sp1));
  request_.target = std::string(line.substr(sp1 + 1, sp2 - sp1 - 1));
  request_.version = std::string(line.substr(sp2 + 1));
  if (request_.method.empty() || request_.target.empty() ||
      request_.version.rfind("HTTP/", 0) != 0) {
    Fail("malformed request line");
    return false;
  }
  return true;
}

// --- HttpResponseParser ----------------------------------------------------

void HttpResponseParser::Reset() {
  ResetFraming();
  status_ = 0;
  headers_.clear();
  body_.clear();
}

const std::string& HttpResponseParser::Header(
    const std::string& name) const {
  return HeaderValue(headers_, name);
}

bool HttpResponseParser::ParseStartLine(std::string_view line) {
  // HTTP/x.y SP code SP reason
  if (line.rfind("HTTP/", 0) != 0) {
    Fail("malformed status line");
    return false;
  }
  size_t sp = line.find(' ');
  if (sp == std::string_view::npos || sp + 4 > line.size()) {
    Fail("malformed status line");
    return false;
  }
  status_ = 0;
  for (size_t i = sp + 1; i < line.size() && line[i] != ' '; ++i) {
    // Three digits at most, so a long digit run cannot overflow.
    if (line[i] < '0' || line[i] > '9' || status_ > 99) {
      Fail("malformed status code");
      return false;
    }
    status_ = status_ * 10 + (line[i] - '0');
  }
  return true;
}

// --- URL helpers -----------------------------------------------------------

namespace {

bool IsUnreserved(unsigned char c) {
  return std::isalnum(c) != 0 || c == '-' || c == '_' || c == '.' ||
         c == '~';
}

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::string PercentEncode(const std::string& raw) {
  static const char* kHex = "0123456789ABCDEF";
  std::string out;
  out.reserve(raw.size());
  for (unsigned char c : raw) {
    if (IsUnreserved(c)) {
      out.push_back(static_cast<char>(c));
    } else {
      out.push_back('%');
      out.push_back(kHex[c >> 4]);
      out.push_back(kHex[c & 0xf]);
    }
  }
  return out;
}

std::string PercentDecode(const std::string& encoded) {
  std::string out;
  out.reserve(encoded.size());
  for (size_t i = 0; i < encoded.size(); ++i) {
    if (encoded[i] == '%' && i + 2 < encoded.size()) {
      int hi = HexDigit(encoded[i + 1]);
      int lo = HexDigit(encoded[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>(hi * 16 + lo));
        i += 2;
        continue;
      }
    }
    out.push_back(encoded[i]);
  }
  return out;
}

void SplitTarget(const std::string& target,
                 std::vector<std::string>* segments, std::string* query) {
  segments->clear();
  query->clear();
  std::string path = target;
  size_t q = path.find('?');
  if (q != std::string::npos) {
    *query = path.substr(q + 1);
    path.resize(q);
  }
  size_t start = 0;
  while (start < path.size()) {
    if (path[start] == '/') {
      ++start;
      continue;
    }
    size_t slash = path.find('/', start);
    if (slash == std::string::npos) slash = path.size();
    segments->push_back(PercentDecode(path.substr(start, slash - start)));
    start = slash + 1;
  }
}

std::string QueryParam(const std::string& query, const std::string& key) {
  size_t start = 0;
  while (start < query.size()) {
    size_t amp = query.find('&', start);
    if (amp == std::string::npos) amp = query.size();
    std::string pair = query.substr(start, amp - start);
    size_t eq = pair.find('=');
    if (eq != std::string::npos && PercentDecode(pair.substr(0, eq)) == key) {
      return PercentDecode(pair.substr(eq + 1));
    }
    start = amp + 1;
  }
  return "";
}

}  // namespace somr::serve
