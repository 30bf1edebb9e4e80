#include "workload/key_dictionary.h"

#include <gtest/gtest.h>

namespace csod::workload {
namespace {

TEST(KeyDictionaryTest, InternAssignsSequentialIndices) {
  GlobalKeyDictionary dict;
  EXPECT_EQ(dict.Intern("a"), 0u);
  EXPECT_EQ(dict.Intern("b"), 1u);
  EXPECT_EQ(dict.Intern("c"), 2u);
  EXPECT_EQ(dict.size(), 3u);
}

TEST(KeyDictionaryTest, InternIsIdempotent) {
  GlobalKeyDictionary dict;
  const size_t first = dict.Intern("en-US|web");
  EXPECT_EQ(dict.Intern("en-US|web"), first);
  EXPECT_EQ(dict.size(), 1u);
}

TEST(KeyDictionaryTest, LookupFindsInterned) {
  GlobalKeyDictionary dict;
  dict.Intern("x");
  dict.Intern("y");
  auto r = dict.Lookup("y");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.Value(), 1u);
}

TEST(KeyDictionaryTest, LookupMissingIsNotFound) {
  GlobalKeyDictionary dict;
  auto r = dict.Lookup("absent");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(KeyDictionaryTest, KeyOfRoundTrips) {
  GlobalKeyDictionary dict;
  const size_t idx = dict.Intern("2015-05-01|en-US|web|url42|DC3");
  auto key = dict.KeyOf(idx);
  ASSERT_TRUE(key.ok());
  EXPECT_EQ(key.Value(), "2015-05-01|en-US|web|url42|DC3");

  // Keys keep their interning order, not their sorted order.
  GlobalKeyDictionary ordered;
  ordered.Intern("z");
  ordered.Intern("a");
  EXPECT_EQ(ordered.KeyOf(0).Value(), "z");
  EXPECT_EQ(ordered.KeyOf(1).Value(), "a");
}

TEST(KeyDictionaryTest, KeyOfOutOfRange) {
  GlobalKeyDictionary dict;
  dict.Intern("only");
  EXPECT_FALSE(dict.KeyOf(1).ok());
}

}  // namespace
}  // namespace csod::workload
