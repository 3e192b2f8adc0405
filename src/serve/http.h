#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace somr::serve {

/// One parsed HTTP/1.1 request. Header names are lower-cased during
/// parsing (HTTP headers are case-insensitive); values keep their bytes
/// with surrounding whitespace trimmed.
struct HttpRequest {
  std::string method;   // "GET", "POST", ...
  std::string target;   // raw request target, e.g. "/context/a%20b/graph"
  std::string version;  // "HTTP/1.1"
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  /// First value of `name` (already lower-case), or "" when absent.
  const std::string& Header(const std::string& name) const;
};

/// One HTTP response; SerializeResponse always emits an explicit
/// Content-Length so clients never need EOF-delimited bodies.
struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
  /// Additional response headers (name, value), serialized verbatim after
  /// Content-Type. Names must be valid header tokens; values must not
  /// contain CR/LF (the serve layer only sets fixed names and hex ids).
  std::vector<std::pair<std::string, std::string>> extra_headers;
  bool close_connection = false;
  /// Server-side routing decided the whole server must stop once this
  /// response is on the wire (/admin/drain). Not serialized.
  bool shutdown_after_send = false;
};

/// Size caps shared by the request and response parsers; every overrun
/// lands in the parser's error state, never unbounded buffering.
struct HttpParserLimits {
  size_t max_header_bytes = 64 * 1024;
  size_t max_body_bytes = 64 * 1024 * 1024;
};

const char* HttpStatusReason(int status);

/// Serializes `response` as an HTTP/1.1 message with Content-Length and
/// a Connection header (keep-alive unless close_connection).
std::string SerializeResponse(const HttpResponse& response);

/// Incremental HTTP/1.1 message framing shared by the request and
/// response parsers. Feed() accepts bytes in arbitrary fragments (a
/// socket read may tear a message anywhere, including mid header line or
/// mid chunk header) and consumes at most one message's worth; leftover
/// bytes stay with the caller for the next message on a keep-alive
/// connection. The body is delimited by Content-Length or
/// Transfer-Encoding: chunked; any other transfer coding is an error, and
/// a message with neither header has an empty body. Every malformed input
/// (bad start line, oversized headers, invalid Content-Length, broken
/// chunk framing, body over limit) lands in the error state with a
/// message, never an abort. Subclasses parse the start line and say
/// where the headers and the body go.
class HttpMessageParser {
 public:
  using Limits = HttpParserLimits;

  /// Consumes up to `size` bytes; returns how many were used. Stops
  /// consuming once the message completes (done()) or fails (error()).
  size_t Feed(const char* data, size_t size);

  bool done() const { return state_ == State::kDone; }
  bool error() const { return state_ == State::kError; }
  const std::string& error_message() const { return error_; }

 protected:
  using HeaderList = std::vector<std::pair<std::string, std::string>>;

  explicit HttpMessageParser(Limits limits) : limits_(limits) {}
  ~HttpMessageParser() = default;

  /// Parses the header block's first line; Fail()s and returns false
  /// when it is malformed.
  virtual bool ParseStartLine(std::string_view line) = 0;
  virtual HeaderList& MutableHeaders() = 0;
  virtual std::string& MutableBody() = 0;

  void Fail(std::string message);
  /// Back to the start of a message; subclasses clear what they parsed.
  void ResetFraming();

 private:
  enum class State {
    kHeaders,
    kBody,          // fixed Content-Length
    kChunkHeader,   // hex size line
    kChunkData,     // chunk payload + trailing CRLF
    kChunkTrailer,  // trailer lines after the final 0-chunk
    kDone,
    kError,
  };

  void ParseHeaderBlock();

  Limits limits_;
  State state_ = State::kHeaders;
  std::string buffer_;  // header block / current framing line
  std::string error_;
  size_t body_remaining_ = 0;  // kBody / kChunkData bytes outstanding
  size_t chunk_padding_ = 0;   // CRLF bytes to swallow after a chunk
};

/// Incremental HTTP/1.1 request parser for the server: a malformed
/// request ends in error(), which the server answers with 400.
class HttpRequestParser final : public HttpMessageParser {
 public:
  HttpRequestParser() : HttpRequestParser(Limits{}) {}
  explicit HttpRequestParser(Limits limits) : HttpMessageParser(limits) {}

  /// The parsed request; valid once done().
  const HttpRequest& request() const { return request_; }
  HttpRequest& request() { return request_; }

  /// Resets to parse the next request (keep-alive reuse).
  void Reset();

 private:
  bool ParseStartLine(std::string_view line) override;
  HeaderList& MutableHeaders() override { return request_.headers; }
  std::string& MutableBody() override { return request_.body; }

  HttpRequest request_;
};

/// Incremental HTTP/1.1 response parser for the built-in client. The
/// same HttpParserLimits apply, so a misbehaving server cannot grow
/// client buffers without bound.
class HttpResponseParser final : public HttpMessageParser {
 public:
  HttpResponseParser() : HttpResponseParser(Limits{}) {}
  explicit HttpResponseParser(Limits limits) : HttpMessageParser(limits) {}

  int status() const { return status_; }
  const std::string& body() const { return body_; }
  const std::string& Header(const std::string& name) const;
  const HeaderList& headers() const { return headers_; }

  void Reset();

 private:
  bool ParseStartLine(std::string_view line) override;
  HeaderList& MutableHeaders() override { return headers_; }
  std::string& MutableBody() override { return body_; }

  int status_ = 0;
  HeaderList headers_;
  std::string body_;
};

/// Percent-encodes every byte outside the URL "unreserved" set (RFC 3986)
/// so arbitrary context ids (spaces, unicode titles) survive a path.
std::string PercentEncode(const std::string& raw);

/// Decodes %XX sequences; invalid escapes are kept literally.
std::string PercentDecode(const std::string& encoded);

/// Splits a request target into decoded path segments and the raw query
/// string: "/context/a%20b/graph?limit=5" -> {"context", "a b",
/// "graph"}, query "limit=5".
void SplitTarget(const std::string& target,
                 std::vector<std::string>* segments, std::string* query);

/// First value of `key` in a query string ("a=1&b=2"), percent-decoded;
/// "" when absent.
std::string QueryParam(const std::string& query, const std::string& key);

}  // namespace somr::serve
