#include "serve/http.h"

#include <gtest/gtest.h>

#include <string>

namespace somr::serve {
namespace {

// Feeds `raw` to a parser one `stride` bytes at a time, as a socket
// with torn reads would. Returns total bytes consumed.
template <typename Parser>
size_t FeedAll(Parser& parser, const std::string& raw, size_t stride) {
  size_t consumed = 0;
  for (size_t at = 0; at < raw.size() && !parser.done() && !parser.error();
       at += stride) {
    const size_t len = std::min(stride, raw.size() - at);
    size_t offered = 0;
    while (offered < len && !parser.done() && !parser.error()) {
      size_t used = parser.Feed(raw.data() + at + offered, len - offered);
      if (used == 0) break;
      offered += used;
    }
    consumed += offered;
  }
  return consumed;
}

TEST(HttpParserTest, ParsesSimpleGet) {
  HttpRequestParser parser;
  const std::string raw =
      "GET /healthz HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\n";
  EXPECT_EQ(parser.Feed(raw.data(), raw.size()), raw.size());
  ASSERT_TRUE(parser.done());
  EXPECT_EQ(parser.request().method, "GET");
  EXPECT_EQ(parser.request().target, "/healthz");
  EXPECT_EQ(parser.request().version, "HTTP/1.1");
  EXPECT_EQ(parser.request().Header("host"), "x");
  EXPECT_EQ(parser.request().Header("accept"), "*/*");
  EXPECT_TRUE(parser.request().body.empty());
}

TEST(HttpParserTest, ParsesContentLengthBody) {
  HttpRequestParser parser;
  const std::string raw =
      "POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
  EXPECT_EQ(parser.Feed(raw.data(), raw.size()), raw.size());
  ASSERT_TRUE(parser.done());
  EXPECT_EQ(parser.request().body, "hello");
}

// A socket read can tear the stream anywhere: mid start line, mid
// header name, between \r and \n, mid chunk-size line, mid chunk data.
// Every stride must produce the identical parse, of a request and of a
// response.
TEST(HttpParserTest, TornReadsAtEveryStrideParseIdentically) {
  const std::string framing =
      "Transfer-Encoding: chunked\r\n"
      "\r\n"
      "6\r\nhello \r\n"
      "7;ext=1\r\nchunked\r\n"
      "6\r\n world\r\n"
      "0\r\n"
      "X-Trailer: ignored\r\n"
      "\r\n";
  const std::string request =
      "POST /context/a%20b/revision HTTP/1.1\r\nHost: localhost\r\n" +
      framing;
  for (size_t stride = 1; stride <= request.size(); ++stride) {
    HttpRequestParser parser;
    FeedAll(parser, request, stride);
    ASSERT_TRUE(parser.done()) << "stride " << stride;
    EXPECT_EQ(parser.request().body, "hello chunked world")
        << "stride " << stride;
    EXPECT_EQ(parser.request().target, "/context/a%20b/revision");
  }
  const std::string response = "HTTP/1.1 200 OK\r\n" + framing;
  for (size_t stride = 1; stride <= response.size(); ++stride) {
    HttpResponseParser parser;
    EXPECT_EQ(FeedAll(parser, response, stride), response.size())
        << "stride " << stride;
    ASSERT_TRUE(parser.done()) << "stride " << stride;
    EXPECT_EQ(parser.status(), 200);
    EXPECT_EQ(parser.body(), "hello chunked world") << "stride " << stride;
  }
}

TEST(HttpParserTest, KeepAliveLeavesTrailingBytesUnconsumed) {
  HttpRequestParser parser;
  const std::string first = "GET /a HTTP/1.1\r\n\r\n";
  const std::string second = "GET /b HTTP/1.1\r\n\r\n";
  const std::string both = first + second;
  // The parser must stop at the first request's end.
  size_t used = parser.Feed(both.data(), both.size());
  ASSERT_TRUE(parser.done());
  EXPECT_EQ(used, first.size());
  EXPECT_EQ(parser.request().target, "/a");
  parser.Reset();
  EXPECT_EQ(parser.Feed(both.data() + used, both.size() - used),
            second.size());
  ASSERT_TRUE(parser.done());
  EXPECT_EQ(parser.request().target, "/b");
}

TEST(HttpParserTest, OversizedHeadersError) {
  HttpRequestParser::Limits limits;
  limits.max_header_bytes = 128;
  HttpRequestParser parser(limits);
  std::string raw = "GET /x HTTP/1.1\r\nX-Big: ";
  raw.append(500, 'a');
  raw += "\r\n\r\n";
  parser.Feed(raw.data(), raw.size());
  ASSERT_TRUE(parser.error());
  EXPECT_NE(parser.error_message().find("header"), std::string::npos);
}

TEST(HttpParserTest, BodyOverLimitErrors) {
  HttpRequestParser::Limits limits;
  limits.max_body_bytes = 10;
  HttpRequestParser parser(limits);
  const std::string raw =
      "POST /x HTTP/1.1\r\nContent-Length: 11\r\n\r\nhello world";
  parser.Feed(raw.data(), raw.size());
  ASSERT_TRUE(parser.error());
}

TEST(HttpParserTest, ChunkedBodyOverLimitErrors) {
  HttpRequestParser::Limits limits;
  limits.max_body_bytes = 8;
  HttpRequestParser parser(limits);
  const std::string raw =
      "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "9\r\nwaytoobig\r\n0\r\n\r\n";
  parser.Feed(raw.data(), raw.size());
  ASSERT_TRUE(parser.error());
}

// A 16-hex-digit chunk size is close to SIZE_MAX; with a non-empty body
// the additive limit check `body + chunk > max` would wrap and pass,
// letting the parser buffer attacker-streamed data without bound.
TEST(HttpParserTest, ChunkSizeNearSizeMaxCannotBypassBodyLimit) {
  HttpRequestParser parser;
  const std::string raw =
      "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "1\r\na\r\n"
      "ffffffffffffffff\r\n";
  parser.Feed(raw.data(), raw.size());
  ASSERT_TRUE(parser.error());
  EXPECT_NE(parser.error_message().find("body"), std::string::npos);
}

TEST(HttpParserTest, MalformedChunkSizeErrorsNotAborts) {
  for (const char* bad : {"zz\r\n", "\r\n", "123456789abcdef01\r\n"}) {
    HttpRequestParser parser;
    const std::string raw =
        std::string("POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n") +
        bad;
    parser.Feed(raw.data(), raw.size());
    EXPECT_TRUE(parser.error()) << "chunk line: " << bad;
    EXPECT_FALSE(parser.error_message().empty());
  }
}

TEST(HttpParserTest, UnsupportedTransferEncodingErrors) {
  HttpRequestParser parser;
  const std::string raw =
      "POST /x HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n";
  parser.Feed(raw.data(), raw.size());
  ASSERT_TRUE(parser.error());
  // A response follows the same rule: an error, not an empty body.
  HttpResponseParser response_parser;
  const std::string response =
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\n\r\n";
  response_parser.Feed(response.data(), response.size());
  ASSERT_TRUE(response_parser.error());
  EXPECT_NE(response_parser.error_message().find("transfer-encoding"),
            std::string::npos);
}

TEST(HttpParserTest, MalformedRequestLineErrors) {
  for (const char* bad :
       {"GARBAGE\r\n\r\n", "GET /x\r\n\r\n", "GET  /x HTTP/1.1 extra\r\n\r\n",
        "GET /x FTP/1.1\r\n\r\n"}) {
    HttpRequestParser parser;
    const std::string raw = bad;
    parser.Feed(raw.data(), raw.size());
    EXPECT_TRUE(parser.error()) << "request: " << bad;
  }
}

TEST(HttpParserTest, InvalidContentLengthErrors) {
  for (const char* bad : {"abc", "-1", "99999999999999999999999999"}) {
    HttpRequestParser parser;
    const std::string raw = std::string("POST /x HTTP/1.1\r\nContent-Length: ") +
                            bad + "\r\n\r\n";
    parser.Feed(raw.data(), raw.size());
    EXPECT_TRUE(parser.error()) << "content-length: " << bad;
  }
}

TEST(HttpParserTest, BareLfLineEndingsAccepted) {
  HttpRequestParser parser;
  const std::string raw = "GET /x HTTP/1.1\nHost: y\n\n";
  EXPECT_EQ(parser.Feed(raw.data(), raw.size()), raw.size());
  ASSERT_TRUE(parser.done());
  EXPECT_EQ(parser.request().Header("host"), "y");
}

TEST(HttpParserTest, SerializeThenParseRoundTrips) {
  HttpResponse response;
  response.status = 404;
  response.content_type = "application/json";
  response.body = "{\"error\": \"nope\"}\n";
  const std::string wire = SerializeResponse(response);

  HttpResponseParser parser;
  for (size_t stride = 1; stride <= wire.size(); ++stride) {
    parser.Reset();
    for (size_t at = 0; at < wire.size() && !parser.done();) {
      at += parser.Feed(wire.data() + at,
                        std::min(stride, wire.size() - at));
    }
    ASSERT_TRUE(parser.done()) << "stride " << stride;
    EXPECT_EQ(parser.status(), 404);
    EXPECT_EQ(parser.body(), response.body);
  }
}

// The response parser buffers under the same limits as the request
// parser: a misbehaving server must not be able to grow client memory
// without bound via endless headers, huge content-length, or a chunk
// size near SIZE_MAX.
TEST(HttpResponseParserTest, OversizedHeadersError) {
  HttpResponseParser::Limits limits;
  limits.max_header_bytes = 128;
  HttpResponseParser parser(limits);
  std::string raw = "HTTP/1.1 200 OK\r\nX-Big: ";
  raw.append(500, 'a');
  raw += "\r\n\r\n";
  parser.Feed(raw.data(), raw.size());
  ASSERT_TRUE(parser.error());
  EXPECT_NE(parser.error_message().find("header"), std::string::npos);
}

TEST(HttpResponseParserTest, BodyOverLimitErrors) {
  HttpResponseParser::Limits limits;
  limits.max_body_bytes = 10;
  HttpResponseParser parser(limits);
  const std::string raw =
      "HTTP/1.1 200 OK\r\nContent-Length: 11\r\n\r\nhello world";
  parser.Feed(raw.data(), raw.size());
  ASSERT_TRUE(parser.error());
}

TEST(HttpResponseParserTest, ChunkSizeNearSizeMaxCannotBypassBodyLimit) {
  HttpResponseParser parser;
  const std::string raw =
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
      "1\r\na\r\n"
      "ffffffffffffffff\r\n";
  parser.Feed(raw.data(), raw.size());
  ASSERT_TRUE(parser.error());
  EXPECT_NE(parser.error_message().find("body"), std::string::npos);
}

TEST(HttpResponseParserTest, MalformedStatusLineErrors) {
  for (const char* bad :
       {"HTTP/1.1\r\n\r\n", "HTTX/1.1 200 OK\r\n\r\n",
        "HTTP/1.1 2x0 OK\r\n\r\n", "HTTP/1.1 99999999999 OK\r\n\r\n"}) {
    HttpResponseParser parser;
    const std::string raw = bad;
    parser.Feed(raw.data(), raw.size());
    EXPECT_TRUE(parser.error()) << "response: " << bad;
  }
}

TEST(HttpResponseParserTest, OversizedChunkSizeLineErrors) {
  HttpResponseParser parser;
  std::string raw = "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n";
  raw.append(200, ' ');  // a framing line that never ends
  parser.Feed(raw.data(), raw.size());
  ASSERT_TRUE(parser.error());
}

TEST(HttpUrlTest, PercentRoundTrip) {
  const std::string raw = "1990 Rock/Dunmore \xc3\xa9 +&?";
  EXPECT_EQ(PercentDecode(PercentEncode(raw)), raw);
  // Unreserved bytes pass through untouched.
  EXPECT_EQ(PercentEncode("AZaz09-_.~"), "AZaz09-_.~");
}

TEST(HttpUrlTest, SplitTargetDecodesSegments) {
  std::vector<std::string> segments;
  std::string query;
  SplitTarget("/context/a%20b/graph?limit=5&x=%2F", &segments, &query);
  ASSERT_EQ(segments.size(), 3u);
  EXPECT_EQ(segments[0], "context");
  EXPECT_EQ(segments[1], "a b");
  EXPECT_EQ(segments[2], "graph");
  EXPECT_EQ(QueryParam(query, "limit"), "5");
  EXPECT_EQ(QueryParam(query, "x"), "/");
  EXPECT_EQ(QueryParam(query, "absent"), "");
}

}  // namespace
}  // namespace somr::serve
