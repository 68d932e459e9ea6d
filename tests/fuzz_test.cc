// Deterministic fuzz suites: every parser/decoder must reject arbitrary
// garbage with a Status — never crash, never hang, never accept trailing
// junk — and survive mutations of valid inputs.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/persist.h"
#include "query/xpath_parser.h"
#include "storage/page_file.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace fix {
namespace {

std::string RandomBytes(Rng* rng, size_t max_len) {
  size_t len = rng->Uniform(max_len + 1);
  std::string out(len, '\0');
  for (char& c : out) c = static_cast<char>(rng->Uniform(256));
  return out;
}

std::string RandomXmlish(Rng* rng, size_t max_len) {
  // Biased toward XML-relevant characters so parsing goes deeper.
  static constexpr char kAlphabet[] =
      "<>/=\"'&;![]CDATA-abcxyz \n\tqwe123#?";
  size_t len = rng->Uniform(max_len + 1);
  std::string out(len, '\0');
  for (char& c : out) {
    c = kAlphabet[rng->Uniform(sizeof(kAlphabet) - 1)];
  }
  return out;
}

TEST(FuzzTest, XmlParserSurvivesGarbage) {
  Rng rng(1001);
  LabelTable labels;
  for (int i = 0; i < 3000; ++i) {
    std::string input =
        (i % 2 == 0) ? RandomBytes(&rng, 200) : RandomXmlish(&rng, 200);
    auto doc = ParseXml(input, &labels);  // must not crash
    if (doc.ok()) {
      // Accidentally-valid documents must round-trip.
      std::string text = SerializeXml(*doc, labels);
      EXPECT_TRUE(ParseXml(text, &labels).ok()) << text;
    }
  }
}

TEST(FuzzTest, XmlParserSurvivesMutatedValidDocs) {
  Rng rng(1002);
  LabelTable labels;
  const std::string base =
      "<bib><book year=\"2006\"><title>FIX &amp; XML</title>"
      "<author><name>Zhang</name></author></book>"
      "<article><![CDATA[raw<>&]]></article></bib>";
  for (int i = 0; i < 3000; ++i) {
    std::string mutated = base;
    int flips = 1 + static_cast<int>(rng.Uniform(4));
    for (int f = 0; f < flips; ++f) {
      size_t pos = rng.Uniform(mutated.size());
      mutated[pos] = static_cast<char>(rng.Uniform(256));
    }
    auto doc = ParseXml(mutated, &labels);  // must not crash
    (void)doc;
  }
}

TEST(FuzzTest, XPathParserSurvivesGarbage) {
  Rng rng(1003);
  static constexpr char kAlphabet[] = "/[]*=\"'abcdef_ .@0";
  for (int i = 0; i < 5000; ++i) {
    size_t len = rng.Uniform(60);
    std::string input(len, '\0');
    for (char& c : input) {
      c = kAlphabet[rng.Uniform(sizeof(kAlphabet) - 1)];
    }
    auto q = ParseXPath(input);  // must not crash
    if (q.ok()) {
      // Valid parses must round-trip through their canonical form.
      std::string printed = q->ToString();
      auto again = ParseXPath(printed);
      EXPECT_TRUE(again.ok()) << input << " -> " << printed;
      if (again.ok()) {
        EXPECT_EQ(again->ToString(), printed);
      }
    }
  }
}

// Curated seed corpus: inputs chosen to reach the parser's deep and
// historically-buggy paths (entity expansion, CDATA edges, unterminated
// markup, deep nesting, attribute quoting, numeric character references).
// Each seed is parsed as-is and then under a deterministic mutation loop;
// the counts are sized so the whole suite stays well inside the tier-1
// budget under ASan/UBSan (the sanitizer build is the point: every byte the
// parser touches on these paths gets bounds- and UB-checked).
const char* const kXmlSeedCorpus[] = {
    "",
    "<",
    "<a",
    "<a>",
    "<a/>",
    "<a></a>",
    "<a></b>",
    "<?xml version=\"1.0\"?><a/>",
    "<?xml version=\"1.0\" encoding=\"UTF-8\"?><a b=\"c\"/>",
    "<!DOCTYPE a><a/>",
    "<a b='c' d=\"e\">&amp;&lt;&gt;&quot;&apos;</a>",
    "<a>&#65;&#x41;&#xe9;</a>",
    "<a>&#0;</a>",
    "<a>&#xFFFFFFFF;</a>",
    "<a>&unknown;</a>",
    "<a><![CDATA[]]></a>",
    "<a><![CDATA[ ]] ]]> ]]></a>",
    "<a><![CDATA[<b>&amp;</b>]]></a>",
    "<a><!-- comment --><b/><!-- --></a>",
    "<a><!-- unterminated",
    "<a><?pi data?></a>",
    "<a b=\"\" b=\"\"/>",
    "<a b=c/>",
    "<a b/>",
    "<a \xff\xfe=\"x\"/>",
    "<a><b><c><d><e><f><g><h><i><j/></i></h></g></f></e></d></c></b></a>",
    "<a><b/><b/><b/><b/><b/><b/><b/><b/><b/><b/><b/><b/><b/><b/><b/></a>",
    "<root xmlns:x=\"urn:y\"><x:child x:attr=\"v\"/></root>",
    "<a>text<b>mixed</b>tail</a>",
    "<\xc3\xa9l\xc3\xa9ment/>",
};

const char* const kXPathSeedCorpus[] = {
    "",
    "/",
    "//",
    "/a",
    "//a",
    "/a/b/c",
    "/a//b",
    "/*",
    "//*",
    "/a/*/b",
    "/a[b]",
    "/a[b/c]",
    "/a[b][c]",
    "/a[b=\"v\"]",
    "/a[b='v']",
    "/a[.=\"v\"]",
    "/a[@id=\"1\"]",
    "/a[b=\"unterminated]",
    "/a[]",
    "/a[[b]]",
    "/a]b[",
    "a",
    "a/b",
    "/a/b[c=\"x\"]//d[e]/f",
    "//a[//b]",
    "/a[b = \"spaced\" ]",
    "/.",
    "/..",
    "/a\xff",
};

TEST(FuzzTest, XmlParserSeedCorpus) {
  LabelTable labels;
  for (const char* seed : kXmlSeedCorpus) {
    auto doc = ParseXml(seed, &labels);  // must not crash
    if (doc.ok()) {
      // Accidentally-valid seeds must round-trip.
      std::string text = SerializeXml(*doc, labels);
      EXPECT_TRUE(ParseXml(text, &labels).ok()) << text;
    }
  }
}

TEST(FuzzTest, XmlParserSeedCorpusMutations) {
  Rng rng(2001);
  LabelTable labels;
  for (const char* seed : kXmlSeedCorpus) {
    const std::string base = seed;
    if (base.empty()) continue;
    for (int i = 0; i < 200; ++i) {
      std::string mutated = base;
      switch (rng.Uniform(3)) {
        case 0:  // byte flip
          mutated[rng.Uniform(mutated.size())] =
              static_cast<char>(rng.Uniform(256));
          break;
        case 1:  // truncation
          mutated.resize(rng.Uniform(mutated.size() + 1));
          break;
        default:  // duplication (stresses sibling/nesting bookkeeping)
          mutated += base.substr(rng.Uniform(base.size()));
          break;
      }
      auto doc = ParseXml(mutated, &labels);  // must not crash
      (void)doc;
    }
  }
}

TEST(FuzzTest, XPathParserSeedCorpus) {
  for (const char* seed : kXPathSeedCorpus) {
    auto q = ParseXPath(seed);  // must not crash
    if (q.ok()) {
      std::string printed = q->ToString();
      auto again = ParseXPath(printed);
      EXPECT_TRUE(again.ok()) << seed << " -> " << printed;
      if (again.ok()) {
        EXPECT_EQ(again->ToString(), printed);
      }
    }
  }
}

TEST(FuzzTest, XPathParserSeedCorpusMutations) {
  Rng rng(2002);
  for (const char* seed : kXPathSeedCorpus) {
    const std::string base = seed;
    if (base.empty()) continue;
    for (int i = 0; i < 200; ++i) {
      std::string mutated = base;
      if (rng.Uniform(2) == 0) {
        mutated[rng.Uniform(mutated.size())] =
            static_cast<char>(rng.Uniform(256));
      } else {
        mutated.insert(rng.Uniform(mutated.size() + 1),
                       1, static_cast<char>(rng.Uniform(256)));
      }
      auto q = ParseXPath(mutated);  // must not crash
      (void)q;
    }
  }
}

TEST(FuzzTest, DocumentCodecSurvivesGarbage) {
  Rng rng(1004);
  for (int i = 0; i < 5000; ++i) {
    std::string buf = RandomBytes(&rng, 120);
    auto doc = DecodeDocument(buf);  // must not crash
    (void)doc;
  }
}

TEST(FuzzTest, DocumentCodecSurvivesTruncationsAndFlips) {
  LabelTable labels;
  auto doc = ParseXml("<a><b>text</b><c><d/><d/></c></a>", &labels);
  ASSERT_TRUE(doc.ok());
  std::string valid;
  EncodeDocument(*doc, &valid);

  // Every prefix must be cleanly rejected or decode to something (no UB).
  for (size_t cut = 0; cut < valid.size(); ++cut) {
    auto truncated = DecodeDocument(valid.substr(0, cut));
    (void)truncated;
  }
  Rng rng(1005);
  for (int i = 0; i < 2000; ++i) {
    std::string mutated = valid;
    mutated[rng.Uniform(mutated.size())] =
        static_cast<char>(rng.Uniform(256));
    auto decoded = DecodeDocument(mutated);
    (void)decoded;  // any Status is fine; crashing is not
  }
}

TEST(FuzzTest, PersistDecodersSurviveGarbage) {
  Rng rng(1006);
  for (int i = 0; i < 4000; ++i) {
    std::string buf = RandomBytes(&rng, 150);
    LabelTable labels;
    (void)DecodeLabelTable(buf, &labels);
    (void)DecodeManifest(buf);
    (void)DecodeIndexMeta(buf);
  }
}

TEST(FuzzTest, IndexMetaPrefixesAlwaysRejected) {
  // The meta codec consumes the buffer exactly (trailing bytes are an
  // error), so every strict prefix must be rejected — there is no cut point
  // that silently decodes to a shorter valid meta.
  IndexMeta meta;
  meta.options.depth_limit = 5;
  meta.edge_weights = {{7, 1}, {8, 2}, {9, 3}};
  meta.indexed_docs = 1234;
  std::string buf = EncodeIndexMeta(meta);
  ASSERT_TRUE(DecodeIndexMeta(buf).ok());
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    auto decoded = DecodeIndexMeta(buf.substr(0, cut));
    EXPECT_FALSE(decoded.ok()) << "prefix of length " << cut << " accepted";
  }
}

TEST(FuzzTest, ChecksummedPagesRejectBitFlipsOfStoredRecords) {
  // Serialized document records and index-meta bytes stored in checksummed
  // pages: any single-bit flip of the raw on-disk blocks must surface as
  // kCorruption from ReadPage — never a crash, never silently accepted data
  // handed to the deserializers.
  const std::string dir =
      ::testing::TempDir() + "/fix_fuzz_pages";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/records.pf";

  LabelTable labels;
  auto doc = ParseXml("<bib><book><title>FIX</title></book></bib>", &labels);
  ASSERT_TRUE(doc.ok());
  std::string record;
  EncodeDocument(*doc, &record);
  IndexMeta meta;
  meta.edge_weights = {{42, 1}};
  std::string meta_buf = EncodeIndexMeta(meta);

  PageFile file;
  ASSERT_TRUE(file.Open(path, /*create=*/true).ok());
  std::vector<char> payload(kPageSize, 0);
  for (const std::string* content : {&record, &meta_buf}) {
    PageId id = kInvalidPage;
    ASSERT_TRUE(file.AllocatePage(&id).ok());
    ASSERT_LE(content->size(), kPageSize);
    std::memset(payload.data(), 0, kPageSize);
    std::memcpy(payload.data(), content->data(), content->size());
    ASSERT_TRUE(file.WritePage(id, payload.data()).ok());
  }

  Rng rng(1008);
  std::vector<char> block(kDiskPageSize), out(kPageSize);
  for (int trial = 0; trial < 500; ++trial) {
    const PageId id = static_cast<PageId>(rng.Uniform(file.num_pages()));
    const size_t byte = rng.Uniform(kDiskPageSize);
    const int bit = static_cast<int>(rng.Uniform(8));
    ASSERT_TRUE(file.ReadRawBlock(id, block.data()).ok());
    block[byte] = static_cast<char>(block[byte] ^ (1 << bit));
    ASSERT_TRUE(file.WriteRawBlock(id, block.data()).ok());

    Status read = file.ReadPage(id, out.data());
    EXPECT_TRUE(read.IsCorruption())
        << "page " << id << " byte " << byte << " bit " << bit << ": "
        << read.ToString();

    block[byte] = static_cast<char>(block[byte] ^ (1 << bit));  // heal
    ASSERT_TRUE(file.WriteRawBlock(id, block.data()).ok());
    ASSERT_TRUE(file.ReadPage(id, out.data()).ok());
  }
  ASSERT_TRUE(file.Close().ok());
  std::filesystem::remove_all(dir);
}

TEST(FuzzTest, PersistDecodersSurviveMutationsOfValidBuffers) {
  LabelTable labels;
  labels.Intern("alpha");
  labels.Intern("beta");
  std::string label_buf = EncodeLabelTable(labels);

  IndexMeta meta;
  meta.options.depth_limit = 6;
  meta.edge_weights = {{42, 1}, {43, 2}};
  std::string meta_buf = EncodeIndexMeta(meta);

  std::string manifest_buf = EncodeManifest({{0}, {77}, {12345}});

  Rng rng(1007);
  for (int i = 0; i < 3000; ++i) {
    for (const std::string* base : {&label_buf, &meta_buf, &manifest_buf}) {
      std::string mutated = *base;
      mutated[rng.Uniform(mutated.size())] =
          static_cast<char>(rng.Uniform(256));
      LabelTable fresh;
      (void)DecodeLabelTable(mutated, &fresh);
      (void)DecodeManifest(mutated);
      (void)DecodeIndexMeta(mutated);
    }
  }
}

}  // namespace
}  // namespace fix
