#include "src/layers/dfs/cluster_stats.h"

namespace springfs::dfs {

ClusterStatsClient::ClusterStatsClient(
    std::string from_node, net::Network* network,
    const net::ChannelOptions& channel_options)
    : from_node_(std::move(from_node)), network_(network),
      channel_options_(channel_options) {}

void ClusterStatsClient::AddServer(const std::string& node,
                                   const std::string& service) {
  servers_.emplace_back(node, service);
}

std::vector<std::pair<std::string, std::string>>
ClusterStatsClient::ParseTargets(const std::string& csv,
                                 const std::string& default_service) {
  std::vector<std::pair<std::string, std::string>> out;
  size_t at = 0;
  while (at <= csv.size()) {
    size_t comma = csv.find(',', at);
    if (comma == std::string::npos) {
      comma = csv.size();
    }
    std::string element = csv.substr(at, comma - at);
    at = comma + 1;
    if (element.empty()) {
      continue;
    }
    size_t colon = element.find(':');
    if (colon == std::string::npos) {
      out.emplace_back(element, default_service);
    } else {
      out.emplace_back(element.substr(0, colon), element.substr(colon + 1));
    }
  }
  return out;
}

std::vector<ServerScrape> ClusterStatsClient::ScrapeAll() {
  // Submit both telemetry requests to every server before awaiting any
  // completion, then drain all the channels together in event-time order:
  // every server answers as its requests arrive, so a W-server scrape
  // costs one RTT, not 2W. Owner 2i is server i's stats request, 2i + 1
  // its health request.
  std::vector<ServerScrape> scrapes(servers_.size());
  net::FanOut fan;
  for (size_t i = 0; i < servers_.size(); ++i) {
    const auto& server = servers_[i];
    scrapes[i].node = server.first;
    scrapes[i].service = server.second;
    sp<net::Channel>& channel = channels_[server];
    if (!channel) {
      channel = network_->OpenChannel(from_node_, server.first, server.second,
                                      channel_options_);
    }
    fan.Submit(channel, RequestFrame(Op::kGetStats, Empty{}), 2 * i);
    fan.Submit(channel, RequestFrame(Op::kGetHealth, Empty{}), 2 * i + 1);
  }

  while (std::optional<net::FanOut::Finished> done = fan.Next()) {
    ServerScrape& scrape = scrapes[done->owner / 2];
    if (done->owner % 2 == 0) {
      Result<GetStatsResponse> body =
          Reply<GetStatsResponse>(done->completion);
      scrape.stats_status = body.status();
      if (body.ok()) {
        scrape.stats = std::move(body->snapshot);
      }
    } else {
      Result<HealthResponse> body = Reply<HealthResponse>(done->completion);
      scrape.health_status = body.status();
      if (body.ok()) {
        scrape.health = std::move(*body);
      }
    }
  }
  return scrapes;
}

metrics::Registry::Snapshot ClusterStatsClient::Aggregate(
    const std::vector<ServerScrape>& scrapes) {
  metrics::Registry::Snapshot out;
  bool have_shared = false;
  for (const ServerScrape& scrape : scrapes) {
    if (!scrape.stats_status.ok()) {
      continue;
    }
    for (const auto& [name, value] : scrape.stats.values) {
      if (name.rfind("self/", 0) == 0) {
        // Per-server sections sum into one cluster total, keyed by the
        // counter name alone.
        out.values["cluster/" + name.substr(5)] += value;
      } else if (!have_shared) {
        out.values[name] = value;
      }
    }
    if (!have_shared) {
      out.histograms = scrape.stats.histograms;
      have_shared = true;
    }
  }
  return out;
}

namespace {

std::string JsonStr(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  out += "\"";
  return out;
}

}  // namespace

std::string HealthToJson(const HealthResponse& health) {
  std::string out = "{";
  out += "\"role\":";
  out += health.role == HealthResponse::Role::kMetadata ? "\"metadata\""
                                                        : "\"data\"";
  out += ",\"boot_epoch\":" + std::to_string(health.boot_epoch);
  out += ",\"uptime_ns\":" + std::to_string(health.uptime_ns);
  out += ",\"stripe_size\":" + std::to_string(health.stripe_size);
  out += ",\"stripe_width\":" + std::to_string(health.stripe_width);
  out += ",\"stripe_replicas\":" + std::to_string(health.stripe_replicas);
  out += ",\"rebuilds_completed\":" +
         std::to_string(health.rebuilds_completed);
  out += ",\"files\":[";
  bool first = true;
  for (const HealthResponse::FileHealth& file : health.files) {
    if (!first) {
      out += ",";
    }
    first = false;
    out += "{\"path\":" + JsonStr(file.path) +
           ",\"map_version\":" + std::to_string(file.map_version) +
           ",\"stale_targets\":[";
    for (size_t i = 0; i < file.stale_targets.size(); ++i) {
      if (i > 0) {
        out += ",";
      }
      out += std::to_string(file.stale_targets[i]);
    }
    out += "]}";
  }
  out += "]";
  out += ",\"delegations_active\":" +
         std::to_string(health.delegations_active);
  out += ",\"leases_active\":" + std::to_string(health.leases_active);
  out += ",\"dedup_entries\":" + std::to_string(health.dedup_entries);
  out += "}";
  return out;
}

std::string ScrapeToJson(const ServerScrape& scrape) {
  std::string out = "{";
  if (scrape.stats_status.ok()) {
    out += "\"stats\":" + metrics::ToJson(scrape.stats);
  } else {
    out += "\"stats_error\":" + JsonStr(scrape.stats_status.message());
  }
  if (scrape.health_status.ok()) {
    out += ",\"health\":" + HealthToJson(scrape.health);
  } else {
    out += ",\"health_error\":" + JsonStr(scrape.health_status.message());
  }
  out += "}";
  return out;
}

}  // namespace springfs::dfs
