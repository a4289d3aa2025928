// BENCH_*.json provenance files (bench/bench_json.h) must be strict JSON
// that wt::json::ParseJson reads back, whatever the entry names, warnings
// or host strings contain.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "bench_json.h"
#include "wt/common/json.h"

namespace wt {
namespace {

TEST(BenchJsonTest, HostileStringsRoundTrip) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "wt_bench_json_test";
  fs::remove_all(dir);
  ASSERT_TRUE(fs::create_directories(dir));
  ASSERT_EQ(setenv("WT_BENCH_JSON_DIR", dir.c_str(), 1), 0);

  const std::string warning = "host \"a\\b\"\nlimps";
  bench::BenchEntry entry;
  entry.name = "sweep \"w8\" \\ r2\nlate";
  entry.wall_seconds = 0.5;
  const std::string path =
      bench::WriteBenchJson("escape", {entry}, {warning});
  unsetenv("WT_BENCH_JSON_DIR");
  ASSERT_EQ(path, (dir / "BENCH_escape.json").string());

  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  Result<json::JsonValue> parsed = json::ParseJson(text.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n"
                           << text.str();
  const json::JsonValue& doc = parsed.value();
  EXPECT_EQ(doc.Find("bench")->AsString(), "escape");
  ASSERT_TRUE(doc.Find("host")->is_object());
  EXPECT_EQ(doc.Find("host")->Find("hostname")->AsString(),
            obs::CollectRunManifest(0, "").hostname);
  const json::JsonValue& warnings = *doc.Find("warnings");
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_EQ(warnings.At(0).AsString(), warning);
  const json::JsonValue& entries = *doc.Find("entries");
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries.At(0).Find("name")->AsString(), entry.name);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace wt
