#include "runtime/field_registry.h"

#include <gtest/gtest.h>

namespace phoenix {
namespace {

struct Fields {
  bool flag = false;
  int64_t count = 0;
  double ratio = 0.0;
  std::string label;
  Value data{Value::List{}};
  ComponentRefField peer;

  void RegisterAll(FieldRegistry& reg) {
    reg.RegisterBool("flag", &flag);
    reg.RegisterInt("count", &count);
    reg.RegisterDouble("ratio", &ratio);
    reg.RegisterString("label", &label);
    reg.RegisterValue("data", &data);
    reg.RegisterComponentRef("peer", &peer);
  }
};

TEST(FieldRegistryTest, SnapshotCapturesValues) {
  Fields f;
  FieldRegistry reg;
  f.RegisterAll(reg);
  f.flag = true;
  f.count = 42;
  f.ratio = 0.5;
  f.label = "hello";
  f.data.MutableList().emplace_back(9);
  f.peer.uri = "phx://m/1/other";

  auto snapshot = reg.Snapshot();
  ASSERT_EQ(snapshot.size(), 6u);
  EXPECT_EQ(snapshot[0].value, Value(true));
  EXPECT_EQ(snapshot[1].value, Value(int64_t{42}));
  EXPECT_EQ(snapshot[3].value, Value("hello"));
  EXPECT_TRUE(snapshot[5].is_component_ref);
  EXPECT_EQ(snapshot[5].value, Value("phx://m/1/other"));
}

TEST(FieldRegistryTest, RestoreOverwritesTarget) {
  Fields src, dst;
  FieldRegistry src_reg, dst_reg;
  src.RegisterAll(src_reg);
  dst.RegisterAll(dst_reg);
  src.count = 7;
  src.label = "from source";
  src.peer.uri = "phx://m/1/x";

  ASSERT_TRUE(dst_reg.Restore(src_reg.Snapshot()).ok());
  EXPECT_EQ(dst.count, 7);
  EXPECT_EQ(dst.label, "from source");
  EXPECT_EQ(dst.peer.uri, "phx://m/1/x");
}

TEST(FieldRegistryTest, UnknownFieldIsCorruption) {
  Fields f;
  FieldRegistry reg;
  f.RegisterAll(reg);
  std::vector<FieldSnapshot> snapshot = {
      {"no_such_field", Value(1), false}};
  EXPECT_TRUE(reg.Restore(snapshot).IsCorruption());
}

TEST(FieldRegistryTest, TypeMismatchIsCorruption) {
  Fields f;
  FieldRegistry reg;
  f.RegisterAll(reg);
  std::vector<FieldSnapshot> snapshot = {{"count", Value("not an int"), false}};
  EXPECT_TRUE(reg.Restore(snapshot).IsCorruption());
}

TEST(FieldRegistryTest, MissingFieldsKeepDefaults) {
  Fields f;
  FieldRegistry reg;
  f.RegisterAll(reg);
  f.count = 99;
  std::vector<FieldSnapshot> partial = {{"label", Value("only this"), false}};
  ASSERT_TRUE(reg.Restore(partial).ok());
  EXPECT_EQ(f.count, 99);  // untouched
  EXPECT_EQ(f.label, "only this");
}

TEST(FieldRegistryTest, IntAcceptedForDoubleField) {
  Fields f;
  FieldRegistry reg;
  f.RegisterAll(reg);
  std::vector<FieldSnapshot> snapshot = {{"ratio", Value(int64_t{3}), false}};
  ASSERT_TRUE(reg.Restore(snapshot).ok());
  EXPECT_DOUBLE_EQ(f.ratio, 3.0);
}

TEST(FieldRegistryTest, StateSizeHintGrows) {
  Fields f;
  FieldRegistry reg;
  f.RegisterAll(reg);
  size_t small = reg.StateSizeHint();
  f.label = std::string(1000, 'x');
  EXPECT_GT(reg.StateSizeHint(), small + 900);
}

}  // namespace
}  // namespace phoenix
