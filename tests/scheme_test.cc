#include "server/exec/scheme.h"

#include <gtest/gtest.h>

namespace bcc {
namespace {

TEST(SchemeTest, NamesRoundTripThroughTheParser) {
  for (const UpdateScheme scheme : {UpdateScheme::kSequential, UpdateScheme::kOcc}) {
    const auto parsed = ParseUpdateScheme(UpdateSchemeName(scheme));
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_EQ(*parsed, scheme);
  }
  EXPECT_EQ(UpdateSchemeName(UpdateScheme::kSequential), "seq");
  EXPECT_EQ(UpdateSchemeName(UpdateScheme::kOcc), "occ");
}

TEST(SchemeTest, SequentialIsAcceptedUnderItsLongName) {
  const auto parsed = ParseUpdateScheme("sequential");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(*parsed, UpdateScheme::kSequential);
}

TEST(SchemeTest, UnknownNamesAreInvalidArguments) {
  for (const char* name : {"2pl", "mvcc", "", "OCC", "seq "}) {
    SCOPED_TRACE(name);
    EXPECT_EQ(ParseUpdateScheme(name).status().code(), StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace bcc
