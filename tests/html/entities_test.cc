#include "html/entities.h"

#include <gtest/gtest.h>

#include <string>

#include "common/rng.h"

namespace somr::html {
namespace {

/// DecodeEntities as it was when it copied text one byte at a time: the
/// reference for the bulk-copying loop. A lone candidate "&body;" (no
/// other '&' in it) is decoded by DecodeEntities itself, which leaves it
/// unchanged exactly when it is not a known reference.
std::string ByteLoopReference(std::string_view s) {
  std::string out;
  size_t i = 0;
  while (i < s.size()) {
    if (s[i] != '&') {
      out.push_back(s[i]);
      ++i;
      continue;
    }
    size_t semi = s.find(';', i + 1);
    if (semi == std::string_view::npos || semi - i > 10) {
      out.push_back('&');
      ++i;
      continue;
    }
    const std::string_view reference = s.substr(i, semi - i + 1);
    if (reference.find('&', 1) == std::string_view::npos) {
      const std::string decoded = DecodeEntities(reference);
      if (decoded != reference) {
        out.append(decoded);
        i = semi + 1;
        continue;
      }
    }
    out.push_back('&');
    ++i;
  }
  return out;
}

TEST(DecodeEntitiesTest, NamedEntities) {
  EXPECT_EQ(DecodeEntities("a &amp; b"), "a & b");
  EXPECT_EQ(DecodeEntities("&lt;tag&gt;"), "<tag>");
  EXPECT_EQ(DecodeEntities("&quot;x&quot;"), "\"x\"");
  EXPECT_EQ(DecodeEntities("&nbsp;"), "\xC2\xA0");
  EXPECT_EQ(DecodeEntities("&ndash;"), "\xE2\x80\x93");
}

TEST(DecodeEntitiesTest, NumericDecimal) {
  EXPECT_EQ(DecodeEntities("&#65;"), "A");
  EXPECT_EQ(DecodeEntities("&#228;"), "\xC3\xA4");
}

TEST(DecodeEntitiesTest, NumericHex) {
  EXPECT_EQ(DecodeEntities("&#x41;"), "A");
  EXPECT_EQ(DecodeEntities("&#x20AC;"), "\xE2\x82\xAC");  // euro sign
  EXPECT_EQ(DecodeEntities("&#X41;"), "A");
}

TEST(DecodeEntitiesTest, UnknownPassesThrough) {
  EXPECT_EQ(DecodeEntities("&bogus;"), "&bogus;");
  EXPECT_EQ(DecodeEntities("&#;"), "&#;");
  EXPECT_EQ(DecodeEntities("&#x;"), "&#x;");
}

TEST(DecodeEntitiesTest, UnterminatedAmpersandIsLiteral) {
  EXPECT_EQ(DecodeEntities("fish & chips"), "fish & chips");
  EXPECT_EQ(DecodeEntities("&"), "&");
  EXPECT_EQ(DecodeEntities("a&verylongnonentity..."),
            "a&verylongnonentity...");
}

TEST(DecodeEntitiesTest, InvalidCodePointsBecomeReplacement) {
  EXPECT_EQ(DecodeEntities("&#xD800;"), "\xEF\xBF\xBD");
  EXPECT_EQ(DecodeEntities("&#x110000;"), "\xEF\xBF\xBD");
}


TEST(DecodeEntitiesTest, ExtendedNamedEntities) {
  EXPECT_EQ(DecodeEntities("caf&eacute;"), "caf\xC3\xA9");
  EXPECT_EQ(DecodeEntities("&uuml;ber"), "\xC3\xBC" "ber");
  EXPECT_EQ(DecodeEntities("5&euro;"), "5\xE2\x82\xAC");
  EXPECT_EQ(DecodeEntities("&plusmn;2"), "\xC2\xB1" "2");
  EXPECT_EQ(DecodeEntities("&rsquo;"), "\xE2\x80\x99");
}

TEST(DecodeEntitiesTest, MatchesByteLoopOnRandomStrings) {
  static constexpr std::string_view kPieces[] = {
      "&", ";", "#", "x", "X", "amp", "lt", "nbsp", "eacute", "bogus",
      "65", "x41", "xD800", "1114112", "&amp;", "&#65;", "&#x20AC;",
      "&verylongname;", "&;", "a", " ", "\xC3\xA9", "\n"};
  Rng rng(2026);
  for (int trial = 0; trial < 200000; ++trial) {
    std::string input;
    const int pieces = static_cast<int>(rng.UniformInt(0, 12));
    for (int p = 0; p < pieces; ++p) {
      if (rng.Bernoulli(0.1)) {
        input.push_back(static_cast<char>(rng.UniformInt(1, 255)));
      } else {
        input.append(kPieces[rng.Index(std::size(kPieces))]);
      }
    }
    ASSERT_EQ(DecodeEntities(input), ByteLoopReference(input))
        << "input: " << input;
  }
}

TEST(EscapeEntitiesTest, EscapesAll5) {
  EXPECT_EQ(EscapeEntities("<a href=\"x\">&'</a>"),
            "&lt;a href=&quot;x&quot;&gt;&amp;&apos;&lt;/a&gt;");
}

TEST(EscapeEntitiesTest, RoundTripWithDecode) {
  std::string original = "a<b & \"c\" 'd'>";
  EXPECT_EQ(DecodeEntities(EscapeEntities(original)), original);
}

TEST(AppendUtf8Test, EncodingLengths) {
  std::string out;
  AppendUtf8('A', out);
  EXPECT_EQ(out.size(), 1u);
  out.clear();
  AppendUtf8(0xE4, out);  // ä
  EXPECT_EQ(out.size(), 2u);
  out.clear();
  AppendUtf8(0x20AC, out);  // €
  EXPECT_EQ(out.size(), 3u);
  out.clear();
  AppendUtf8(0x1F600, out);  // emoji
  EXPECT_EQ(out.size(), 4u);
}

}  // namespace
}  // namespace somr::html
