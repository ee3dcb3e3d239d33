// lswc_top — attach to a running crawl's live telemetry endpoint and
// render a refreshing one-screen summary:
//
//   lswc_top unix:/tmp/crawl.sock
//   lswc_top --interval=0.5 tcp:7071
//   lswc_top --once --path=/metrics tcp:127.0.0.1:7071
//
// The endpoint is whatever the crawl was started with (--telemetry=);
// for tcp:0 the crawl prints the resolved port as a stderr "TELEMETRY"
// line. The summary itself is rendered by the *server* (/top), so every
// attached viewer — and the crawl's own --progress-every stderr line —
// shows the same document; this binary is a dumb terminal. --path
// fetches the other documents (/progress JSON, /metrics Prometheus
// text) for scripts and CI.

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "obs/telemetry_server.h"
#include "util/flags.h"

namespace lswc {
namespace {

int Main(int argc, char** argv) {
  bool once = false;
  double interval_sec = 2.0;
  std::string path = "/top";
  FlagTable table("[options] unix:PATH|tcp:[HOST:]PORT");
  table.Switch("--once", "fetch and print one document, then exit", &once);
  table.Double("--interval", "SECS", "refresh period (default 2.0)",
               &interval_sec, 0.0, /*exclusive=*/true);
  table.Custom("--path", "/top|/progress|/metrics",
               "document to fetch (default /top)",
               [&path](std::string_view value) {
                 if (value.empty() || value[0] != '/') {
                   return std::string("must start with '/'");
                 }
                 path = std::string(value);
                 return std::string();
               });
  std::vector<std::string> positional;
  table.ParseOrExit(argc, argv, &positional);
  if (positional.size() != 1) table.Fail("expected one endpoint");
  const std::string& endpoint = positional[0];

  bool attached = false;
  for (;;) {
    auto body = obs::TelemetryGet(endpoint, path);
    if (!body.ok()) {
      // Losing an endpoint we once reached means the crawl exited —
      // a normal way for a watch session to end.
      std::fprintf(stderr, "%s: %s\n", endpoint.c_str(),
                   body.status().ToString().c_str());
      return attached && !once ? 0 : 1;
    }
    attached = true;
    if (!once) std::printf("\x1b[H\x1b[2J");  // Home + clear, like top(1).
    std::fputs(body->c_str(), stdout);
    std::fflush(stdout);
    if (once) return 0;
    std::this_thread::sleep_for(std::chrono::duration<double>(interval_sec));
  }
}

}  // namespace
}  // namespace lswc

int main(int argc, char** argv) { return lswc::Main(argc, argv); }
