#include "core/report.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "sim/task.hpp"

namespace pinsim::core {
namespace {

TEST(Report, ContainsTheKeyCountersAfterATransfer) {
  sim::Engine eng;
  net::Fabric fabric(eng);
  Host::Config hc;
  hc.memory_frames = 16384;
  Host a(eng, fabric, hc, overlapped_cache_config());
  Host b(eng, fabric, hc, overlapped_cache_config());
  auto& pa = a.spawn_process();
  auto& pb = b.spawn_process();

  const std::size_t len = 256 * 1024;
  const auto src = pa.heap.malloc(len);
  const auto dst = pb.heap.malloc(len);
  sim::spawn(eng, [](Library& lib, EndpointAddr to, mem::VirtAddr buf,
                     std::size_t n) -> sim::Task<> {
    (void)co_await lib.send(to, 1, buf, n);
  }(pa.lib, pb.addr(), src, len));
  sim::spawn(eng, [](Library& lib, mem::VirtAddr buf,
                     std::size_t n) -> sim::Task<> {
    (void)co_await lib.recv(1, ~std::uint64_t{0}, buf, n);
  }(pb.lib, dst, len));
  eng.run();
  eng.rethrow_task_failures();

  const std::string report = format_report(pa, a);
  EXPECT_NE(report.find("rndv=1"), std::string::npos) << report;
  EXPECT_NE(report.find("pinning:"), std::string::npos);
  EXPECT_NE(report.find("region cache:"), std::string::npos);
  EXPECT_NE(report.find("overlap:"), std::string::npos);
  EXPECT_NE(report.find("host pinned pages"), std::string::npos);

  const std::string recv_report = format_report(pb, b);
  EXPECT_NE(recv_report.find("pulls="), std::string::npos);
}

TEST(Report, FreshProcessReportsZeroes) {
  sim::Engine eng;
  net::Fabric fabric(eng);
  Host a(eng, fabric, {}, pinning_cache_config());
  auto& pa = a.spawn_process();
  const std::string report = format_report(pa, a);
  EXPECT_NE(report.find("eager=0 rndv=0"), std::string::npos) << report;
  EXPECT_NE(report.find("misses=0"), std::string::npos);
}

TEST(Report, JsonCarriesHostAndCoreNames) {
  sim::Engine eng;
  net::Fabric fabric(eng);
  Host::Config hc;
  hc.name = "hostA";
  Host a(eng, fabric, hc, pinning_cache_config());
  auto& pa = a.spawn_process();
  const std::string json = format_json_report(pa, a);
  EXPECT_NE(json.find("\"host\":\"hostA\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"core\":\""), std::string::npos);
  EXPECT_NE(json.find("\"endpoint\":0"), std::string::npos);
}

TEST(Report, JsonEscapesHostileHostName) {
  // A host name with a quote and a backslash must not break the JSON —
  // emission goes through the obs/json.hpp escaping authority.
  sim::Engine eng;
  net::Fabric fabric(eng);
  Host::Config hc;
  hc.name = "evil\"host\\name";
  Host a(eng, fabric, hc, pinning_cache_config());
  auto& pa = a.spawn_process();
  const std::string json = format_json_report(pa, a);
  EXPECT_NE(json.find("\"host\":\"evil\\\"host\\\\name\""), std::string::npos)
      << json;
}

}  // namespace
}  // namespace pinsim::core
