// Remote telemetry scraping for a DFS cluster (DESIGN.md §16).
//
// Every observability surface below this file is in-process: the metrics
// registry, span trees, and the flight recorder all describe *this*
// process. ClusterStatsClient is the remote half: it fans the typed
// kGetStats/kGetHealth ops to the metadata server and every data server in
// parallel over persistent async channels, so an operator (or a harness)
// can ask a running cluster which replicas are degraded, how far rebuild
// has progressed, and what the server-side per-op latency looks like —
// without being the server.

#ifndef SPRINGFS_LAYERS_DFS_CLUSTER_STATS_H_
#define SPRINGFS_LAYERS_DFS_CLUSTER_STATS_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/layers/dfs/wire.h"
#include "src/net/network.h"
#include "src/obs/metrics.h"

namespace springfs::dfs {

// One server's scrape: both telemetry documents plus per-op transport
// verdicts. An unreachable server is reported, never fatal — a scrape of a
// half-dead cluster is exactly when the tool matters most.
struct ServerScrape {
  std::string node;
  std::string service;
  Status stats_status = Status::Ok();
  Status health_status = Status::Ok();
  metrics::Registry::Snapshot stats;  // valid when stats_status.ok()
  HealthResponse health;              // valid when health_status.ok()

  std::string address() const { return node + ":" + service; }
  bool ok() const { return stats_status.ok() && health_status.ok(); }
};

class ClusterStatsClient {
 public:
  // `from_node` must be a registered fabric node the scraper calls from.
  ClusterStatsClient(std::string from_node, net::Network* network,
                     const net::ChannelOptions& channel_options = {});

  void AddServer(const std::string& node, const std::string& service);

  // Parses a "node[:service],node[:service],..." address list; servers
  // without an explicit service get `default_service`. Empty elements are
  // skipped.
  static std::vector<std::pair<std::string, std::string>> ParseTargets(
      const std::string& csv, const std::string& default_service);

  // Scrapes every configured server: both requests per server are
  // submitted before any completion is awaited, and the channels drain
  // together in event-time order (net::FanOut), so the whole cluster
  // answers in one round trip. One entry per server, in AddServer order.
  std::vector<ServerScrape> ScrapeAll();

  // One cluster view from a set of scrapes. Per-server "self/" counters
  // sum across servers; the shared registry section is taken from the
  // first reachable server (in the simulated single-process world every
  // server reports the identical process registry — summing it would count
  // the same counter once per server; see the scrape-consistency caveats
  // in DESIGN.md §16).
  static metrics::Registry::Snapshot Aggregate(
      const std::vector<ServerScrape>& scrapes);

 private:
  std::string from_node_;
  net::Network* network_;
  net::ChannelOptions channel_options_;
  std::vector<std::pair<std::string, std::string>> servers_;
  std::map<std::pair<std::string, std::string>, sp<net::Channel>> channels_;
};

// JSON renderings for --json scrapes: one flat document per health reply,
// and one per scrape ({"stats": <metrics::ToJson>, "health": ...,
// "error": "..."}). Keys are stable; CI consumes these.
std::string HealthToJson(const HealthResponse& health);
std::string ScrapeToJson(const ServerScrape& scrape);

}  // namespace springfs::dfs

#endif  // SPRINGFS_LAYERS_DFS_CLUSTER_STATS_H_
