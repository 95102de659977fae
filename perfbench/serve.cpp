// The service workloads: closed-loop clients against servers hosted in this
// process, one client thread per connection, at most nproc of them.
//
//   serve_read    one server, file-backed repository seeded with
//                 kSeedObjects IOR objects, reads only
//   serve_mixed   the same reads plus 10% knowledge/store
//   serve_quorum  the serve_mixed stream through repl::ClusterClient against
//                 a primary and kReplicas replicas under AckPolicy::kQuorum
//
// The mix follows iokc-loadgen's rule, applied to the nine read endpoints
// timed here: every read endpoint equally likely, and 10% stores on the
// write workloads (loadgen's default --write-fraction).
//
// A run is a sequence of rounds. Each round deploys afresh (timed as one
// set-up), serves a fixed number of requests, checks the outputs and tears
// the deployment down, so every round sees the same repository sizes however
// fast it runs. Every server runs its default ServerConfig. Request g of a
// run is a pure function of (seed, g); clients draw g from a shared counter.
// When tracing, traced rounds alternate with untraced ones and also time the
// JSON work of each request; the layer probes then call each module's public
// functions directly on the last round's quiesced deployment.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/common.hpp"
#include "src/analysis/anomaly.hpp"
#include "src/db/journal.hpp"
#include "src/generators/ior.hpp"
#include "src/persist/repository.hpp"
#include "src/repl/cluster_client.hpp"
#include "src/repl/node.hpp"
#include "src/svc/client.hpp"
#include "src/svc/protocol.hpp"
#include "src/svc/server.hpp"
#include "src/svc/snapshot.hpp"
#include "src/svc/socket.hpp"
#include "src/usage/prediction.hpp"
#include "src/usage/recommendation.hpp"
#include "src/util/error.hpp"
#include "src/util/json_writer.hpp"
#include "src/util/rng.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace iokc;

constexpr std::size_t kSeedObjects = 1000;
// The mix's endpoints by label: lookups, then analytics, then the write. A
// block holds kPerEndpoint requests of each endpoint in a seeded order, so
// every round sees the same proportions.
constexpr const char* kEndpoints[] = {
    "health", "get",   "anomaly",  "sql_point",          // lookups
    "list",   "stats", "sql_scan", "predict", "recommend",  // analytics
    "store"};                                               // write workloads
constexpr std::uint64_t kLookupEndpoints = 4;
constexpr std::uint64_t kReadEndpoints = 9;
constexpr std::uint64_t kPerEndpoint = 10;
constexpr std::uint64_t kMaxBlock = kPerEndpoint * (kReadEndpoints + 1);
// Whole blocks with and without writes (900 = 10 x 90 = 9 x 100).
constexpr std::uint64_t kRoundRequests = 900;
constexpr std::size_t kReplicas = 2;
constexpr std::uint64_t kStoredIndexBase = 1ull << 40;
constexpr std::uint64_t kProbeStream = 1ull << 50;  // stream offset of probes

enum class Kind { kLookup, kAnalytic, kWrite };

/// One planned request and what its response must show.
struct Planned {
  Kind kind = Kind::kLookup;
  std::string label;  // names the svc.dispatch_<label>_us metric
  std::string endpoint;
  util::JsonValue params = util::JsonValue(util::JsonObject{});
  std::int64_t expect_id = 0;       // sql_point: the id it must return
  std::size_t query = 0;            // predict: index into query_commands()
  std::uint64_t object_index = 0;   // store: synthetic_knowledge index
};

const std::vector<std::string>& query_commands() {
  static const std::vector<std::string> commands = {
      "ior -a posix -b 4m -t 256k -s 4 -i 4 -N 4 -o /scratch/q0",
      "ior -a posix -b 4m -t 1m -s 4 -i 4 -N 8 -o /scratch/q1",
      "ior -a mpiio -b 4m -t 512k -s 4 -i 4 -N 16 -o /scratch/q2",
      "ior -a mpiio -b 4m -t 2m -s 4 -i 4 -N 8 -o /scratch/q3",
      "ior -a posix -b 4m -t 2m -s 4 -i 4 -N 16 -o /scratch/q4",
      "ior -a mpiio -b 4m -t 256k -s 4 -i 4 -N 4 -o /scratch/q5",
      "ior -a posix -b 4m -t 512k -s 4 -i 4 -N 8 -o /scratch/q6",
      "ior -a mpiio -b 4m -t 1m -s 4 -i 4 -N 16 -o /scratch/q7",
  };
  return commands;
}

/// The seeded repository's contents, in store order. Every round seeds an
/// empty repository with them, so the ids are the same in every round.
struct Seeded {
  std::vector<knowledge::Knowledge> objects;
  std::vector<std::int64_t> ids;
};

util::JsonValue object_params(std::initializer_list<
                              std::pair<std::string, util::JsonValue>> items) {
  util::JsonObject object;
  for (const auto& item : items) {
    object.emplace_back(item.first, item.second);
  }
  return util::JsonValue(std::move(object));
}

/// Slot `s` of block `block` after a seeded Fisher-Yates shuffle of its
/// `size` slots, as a pure function.
std::uint64_t shuffled_slot(std::uint64_t seed, std::uint64_t size,
                            std::uint64_t block, std::uint64_t s) {
  std::uint64_t order[kMaxBlock];
  for (std::uint64_t k = 0; k < size; ++k) {
    order[k] = k;
  }
  util::Rng rng(util::splitmix64(seed ^ 0xb10cull, block));
  for (std::uint64_t k = size - 1; k > 0; --k) {
    std::swap(order[k], order[rng.uniform_int(0, static_cast<std::int64_t>(k))]);
  }
  return order[s];
}

/// Request g of the stream. The seed picks the order within each block, the
/// objects read, the query commands and the objects stored.
Planned plan(std::uint64_t seed, const Seeded& seeded, bool writes,
             std::uint64_t g) {
  const std::uint64_t endpoints = kReadEndpoints + (writes ? 1 : 0);
  const std::uint64_t size = kPerEndpoint * endpoints;
  const std::uint64_t endpoint =
      shuffled_slot(seed, size, g / size, g % size) % endpoints;
  const std::uint64_t pick = util::splitmix64(seed ^ 0x5e12e5ull, g);
  const std::size_t target = (pick >> 8) % seeded.ids.size();
  const std::int64_t id = seeded.ids[target];
  Planned p;
  p.kind = endpoint < kLookupEndpoints  ? Kind::kLookup
           : endpoint < kReadEndpoints ? Kind::kAnalytic
                                       : Kind::kWrite;
  p.label = p.endpoint = kEndpoints[endpoint];
  p.query = (pick >> 40) % query_commands().size();
  if (p.label == "get") {
    p.endpoint = "knowledge/get";
    p.params = object_params({{"id", util::JsonValue(id)}});
  } else if (p.label == "anomaly") {
    p.params = object_params({{"id", util::JsonValue(id)}});
  } else if (p.label == "sql_point") {
    p.endpoint = "sql";
    p.expect_id = id;
    p.params = object_params(
        {{"statement",
          util::JsonValue("SELECT id FROM performances WHERE command = '" +
                          seeded.objects[target].command + "'")}});
  } else if (p.label == "sql_scan") {
    p.endpoint = "sql";
    p.params = object_params(
        {{"statement", util::JsonValue("SELECT id, command FROM performances")}});
  } else if (p.label == "predict" || p.label == "recommend") {
    p.params = object_params(
        {{"command", util::JsonValue(query_commands()[p.query])}});
  } else if (p.label == "store") {
    p.endpoint = "knowledge/store";
    p.object_index = kStoredIndexBase + g;
    p.params = object_params(
        {{"object", synthetic_knowledge(seed, p.object_index).to_json()}});
  }
  return p;
}

/// predict's answer for one query command, computed straight from usage.
struct Prediction {
  double regression = 0.0;
  double knn = 0.0;
};

std::vector<Prediction> direct_predictions(
    persist::KnowledgeRepository& repository) {
  const std::vector<usage::TrainingSample> samples =
      usage::build_training_set(repository, "write");
  const usage::BandwidthPredictor predictor =
      usage::BandwidthPredictor::fit(samples);
  std::vector<Prediction> out;
  for (const std::string& command : query_commands()) {
    const usage::ConfigFeatures features =
        usage::ConfigFeatures::from_command(command);
    out.push_back({predictor.predict(features),
                   usage::knn_predict(samples, features)});
  }
  return out;
}

bool close_to(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

/// The servers of one round: a standalone server, or a primary plus
/// replicas. Owns the repositories.
struct Deployment {
  fs::path dir;
  bool cluster = false;
  std::unique_ptr<persist::KnowledgeRepository> primary_repo;
  std::unique_ptr<svc::Server> server;
  std::unique_ptr<repl::PrimaryNode> primary;
  std::vector<std::unique_ptr<persist::KnowledgeRepository>> replica_repos;
  std::vector<std::unique_ptr<repl::ReplicaNode>> replicas;
  std::vector<std::string> targets;  // targets[0] is the primary

  svc::Server& front() { return cluster ? primary->server() : *server; }
  std::vector<svc::Server*> servers() {
    std::vector<svc::Server*> out{&front()};
    for (auto& node : replicas) {
      out.push_back(&node->server());
    }
    return out;
  }
  fs::path primary_path() const { return dir / "primary.db"; }

  void stop() {
    for (auto& node : replicas) {
      node->stop();
    }
    if (primary) {
      primary->stop();
    }
    if (server) {
      server->stop();
    }
  }
  void destroy() {
    stop();
    replicas.clear();
    replica_repos.clear();
    primary.reset();
    server.reset();
    primary_repo.reset();
    std::error_code ignored;
    fs::remove_all(dir, ignored);
  }
};

std::string address(std::uint16_t port) {
  return "127.0.0.1:" + std::to_string(port);
}

/// Seeds the repository, starts the servers, and builds each server's first
/// snapshot, so the round's first request is served warm.
std::unique_ptr<Deployment> deploy(const Options& options, Seeded& seeded,
                                   int round) {
  auto d = std::make_unique<Deployment>();
  d->dir = fs::path(options.workdir) / ("round" + std::to_string(round));
  d->cluster = options.workload == "serve_quorum";
  fs::remove_all(d->dir);
  fs::create_directories(d->dir);
  d->primary_repo = std::make_unique<persist::KnowledgeRepository>(
      persist::RepoTarget::parse("file:" + d->primary_path().string()));
  seeded.ids = d->primary_repo->store_batch(seeded.objects);
  if (!d->cluster) {
    d->server = std::make_unique<svc::Server>(*d->primary_repo);
    d->server->start();
    d->targets.push_back(address(d->server->port()));
  } else {
    repl::ShipperConfig ship;
    ship.ack_policy = repl::AckPolicy::kQuorum;
    ship.expected_replicas = kReplicas;
    d->primary = std::make_unique<repl::PrimaryNode>(*d->primary_repo,
                                                     svc::ServerConfig{}, ship);
    d->primary->start();
    d->targets.push_back(address(d->primary->server().port()));
    for (std::size_t r = 0; r < kReplicas; ++r) {
      const std::string name = "replica" + std::to_string(r);
      d->replica_repos.push_back(std::make_unique<persist::KnowledgeRepository>(
          persist::RepoTarget::parse("file:" + (d->dir / (name + ".db")).string())));
      svc::ServerConfig config;
      config.primary_address = d->targets[0];
      repl::ReplicaConfig replication;
      replication.primary_port = d->primary->shipper().port();
      replication.reconnect_delay_ms = 100;
      replication.marker_path = (d->dir / (name + ".synced")).string();
      d->replicas.push_back(std::make_unique<repl::ReplicaNode>(
          *d->replica_repos.back(), std::move(config), replication));
      d->replicas.back()->start();
      d->targets.push_back(address(d->replicas.back()->server().port()));
    }
    const std::uint64_t seq = d->primary_repo->applied_seq();
    for (auto& node : d->replicas) {
      if (!node->replication().wait_applied(seq, 10000)) {
        throw IoError("replica never caught up with the seeded repository");
      }
    }
  }
  for (svc::Server* server : d->servers()) {
    svc::Request warm{"stats", util::JsonValue(util::JsonObject{})};
    server->dispatch(warm);
  }
  return d;
}

/// A write whose ack came back: which object, under which id.
struct Acked {
  std::int64_t id = 0;
  std::uint64_t object_index = 0;
};

/// What one client thread saw.
struct ClientResult {
  Report report;
  std::vector<Acked> acked;
  std::vector<std::uint64_t> reads_per_target;
};

std::string dumped(const svc::Request& request) {
  util::JsonWriter writer;
  request.dump_to(writer);
  return writer.take();
}
std::string dumped(const svc::Response& response) {
  util::JsonWriter writer;
  response.dump_to(writer);
  return writer.take();
}

/// Times the JSON work one request costs on the wire path: encoding and
/// parsing the request and its response, as client and server each do once.
void trace_json(const svc::Request& request, const svc::Response& response,
                const std::string& suffix, Report& report) {
  auto start = Clock::now();
  const std::string request_text = dumped(request);
  const std::string response_text = dumped(response);
  report.add("util.json_encode" + suffix, since_us(start));
  start = Clock::now();
  svc::Request::from_json(util::parse_json(request_text));
  svc::Response::from_json(util::parse_json(response_text));
  report.add("util.json_parse" + suffix, since_us(start));
}

/// One closed-loop client: takes the next request index from `next` until
/// it reaches `end`, sends it, waits for the reply and checks it.
void client_loop(const Options& options, const Seeded& seeded,
                 const std::vector<Prediction>& predictions,
                 Deployment& deployment, std::atomic<std::uint64_t>& next,
                 std::uint64_t end, Clock::time_point timeline_start,
                 bool traced, ClientResult& out) {
  const bool writes = options.workload != "serve_read";
  svc::ClientOptions client_options;
  client_options.connect_retries = 9;
  std::optional<svc::Client> single;
  std::optional<repl::ClusterClient> cluster;
  const std::uint16_t port = deployment.front().port();
  if (deployment.cluster) {
    repl::ClusterClientOptions cluster_options;
    cluster_options.client = client_options;
    cluster.emplace(deployment.targets, cluster_options);
  } else {
    single.emplace(svc::Client::connect("127.0.0.1", port, client_options));
  }
  Report& report = out.report;
  const std::string prefix = traced ? "traced." : "";
  for (std::uint64_t g = next++; g < end; g = next++) {
    Planned p = plan(options.seed, seeded, writes, g);
    std::optional<svc::Request> request;
    if (traced) {
      request.emplace(svc::Request{p.endpoint, p.params});
    }
    svc::Response response;
    const auto start = Clock::now();
    try {
      response = cluster ? cluster->call(p.endpoint, std::move(p.params))
                         : single->call(p.endpoint, std::move(p.params));
    } catch (const Error&) {
      report.check(false, "transport: " + p.label);
      if (!cluster) {
        single.emplace(svc::Client::connect("127.0.0.1", port, client_options));
      }
      continue;
    }
    const double us = since_us(start);
    if (!response.ok) {
      report.check(false, "error response: " + p.label);
      continue;
    }
    bool correct = true;
    if (p.label == "sql_point") {
      const util::JsonArray& rows = response.result.at("rows").as_array();
      correct = rows.size() == 1 &&
                rows[0].as_array().at(0).as_int() == p.expect_id;
    } else if (p.label == "predict" && !writes) {
      const Prediction& expected = predictions[p.query];
      correct = close_to(response.result.at("knn_mib").as_double(),
                         expected.knn) &&
                close_to(response.result.at("regression_mib").as_double(),
                         expected.regression);
    } else if (p.kind == Kind::kWrite) {
      const util::JsonValue* replication = response.result.find("replication");
      correct = replication == nullptr || replication->as_string() == "acked";
      if (correct) {
        out.acked.push_back({response.result.at("id").as_int(), p.object_index});
      }
    }
    report.check(correct, "wrong output: " + p.label);
    if (!correct) {
      continue;
    }
    ++report.ops;
    const std::string kind = p.kind == Kind::kLookup     ? "lookup"
                             : p.kind == Kind::kAnalytic ? "analytic"
                                                         : "write";
    report.add(prefix + kind + "_us", us);
    if (!traced) {
      const double t = since_s(timeline_start);
      report.add(kind + "_t", t);
      report.add("ep." + p.label + "_us", us);  // the same request by endpoint
      report.add("ep." + p.label + "_t", t);
    }
    if (traced && p.kind != Kind::kAnalytic) {
      trace_json(*request, response, p.kind == Kind::kWrite ? "_store_us" : "_us",
                 report);
    }
  }
  if (cluster) {
    out.reads_per_target = cluster->reads_per_target();
  }
}

/// Server-side counters summed over every node.
struct Counters {
  double requests = 0, bytes_in = 0, bytes_out = 0, full = 0, delta = 0,
         hits = 0, misses = 0;

  /// Adds the change from `before` to `after`.
  void add(const Counters& after, const Counters& before) {
    requests += after.requests - before.requests;
    bytes_in += after.bytes_in - before.bytes_in;
    bytes_out += after.bytes_out - before.bytes_out;
    full += after.full - before.full;
    delta += after.delta - before.delta;
    hits += after.hits - before.hits;
    misses += after.misses - before.misses;
  }
};

Counters server_counters(Deployment& deployment) {
  Counters c;
  for (svc::Server* server : deployment.servers()) {
    const svc::ServerStats s = server->stats();
    c.requests += static_cast<double>(s.requests);
    c.bytes_in += static_cast<double>(s.bytes_in);
    c.bytes_out += static_cast<double>(s.bytes_out);
    c.full += static_cast<double>(s.snapshot_full_rebuilds);
    c.delta += static_cast<double>(s.snapshot_delta_applies);
    c.hits += static_cast<double>(s.sql_cache_hits);
    c.misses += static_cast<double>(s.sql_cache_misses);
  }
  return c;
}

double shipper_counter(Deployment& deployment, const char* key) {
  util::JsonObject stats;
  deployment.primary->shipper().extend_stats(stats);
  for (const auto& [name, value] : stats) {
    if (name == key) {
      return value.as_double();
    }
  }
  return 0.0;
}

std::size_t client_count() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Serves requests [first, first + kRoundRequests) of the stream with
/// client_count() closed-loop clients; returns the round's length in s.
/// Completion times are offset by `time_offset`, so the untraced rounds of
/// a run form one timeline.
double run_round(const Options& options, const Seeded& seeded,
                 const std::vector<Prediction>& predictions,
                 Deployment& deployment, std::uint64_t first, bool traced,
                 double time_offset, Report& report, std::vector<Acked>& acked,
                 std::vector<std::uint64_t>& reads_per_target) {
  const std::size_t clients = client_count();
  std::vector<ClientResult> results(clients);
  std::vector<std::thread> threads;
  std::atomic<std::uint64_t> next{first};
  const auto start = Clock::now();
  const auto timeline_start =
      start - std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(time_offset));
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        client_loop(options, seeded, predictions, deployment, next,
                    first + kRoundRequests, timeline_start, traced, results[c]);
      } catch (const std::exception& error) {
        results[c].report.check(false, std::string("client: ") + error.what());
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  const double elapsed = since_s(start);
  for (ClientResult& result : results) {
    report.merge(result.report);
    acked.insert(acked.end(), result.acked.begin(), result.acked.end());
    reads_per_target.resize(
        std::max(reads_per_target.size(), result.reads_per_target.size()));
    for (std::size_t t = 0; t < result.reads_per_target.size(); ++t) {
      reads_per_target[t] += result.reads_per_target[t];
    }
  }
  return elapsed;
}

/// Calls `body` until `calls` samples or `budget_s` seconds (at least 3).
template <typename Body>
void repeat(int calls, double budget_s, Body&& body) {
  const auto start = Clock::now();
  for (int i = 0; i < calls && (i < 3 || since_s(start) < budget_s); ++i) {
    body(i);
  }
}

/// Round trips of recorded request/response payloads through an echo peer
/// that speaks the service framing: the socket and framing cost of a request
/// with none of the server's work.
void probe_transport(const std::vector<std::pair<std::string, std::string>>& pairs,
                     const std::string& name, Report& report) {
  svc::Socket listener = svc::listen_on("127.0.0.1", 0);
  const std::uint16_t port = svc::local_port(listener);
  std::thread echo([&] {
    try {
      svc::Socket peer = svc::accept_connection(listener, 5000);
      for (std::size_t k = 0;; ++k) {
        if (!svc::read_frame(peer, svc::kDefaultMaxFrameBytes, 5000)) {
          break;
        }
        svc::send_frame_v(peer, pairs[k % pairs.size()].second);
      }
    } catch (const std::exception&) {
      // The client side records the failure.
    }
  });
  try {
    svc::Socket socket = svc::connect_to("127.0.0.1", port, 2000);
    repeat(2000, 0.3, [&](int i) {
      const auto start = Clock::now();
      svc::send_frame_v(socket, pairs[static_cast<std::size_t>(i) % pairs.size()].first);
      if (!svc::read_frame(socket, svc::kDefaultMaxFrameBytes, 5000)) {
        throw IoError("echo peer closed");
      }
      report.add(name, since_us(start));
    });
  } catch (const std::exception& error) {
    report.check(false, std::string("transport probe: ") + error.what());
  }
  listener.shutdown_both();
  echo.join();
}

/// Read-side layer probes on the quiesced deployment.
void probe_reads(const Options& options, const Seeded& seeded,
                 Deployment& deployment, Report& report) {
  svc::Server& server = deployment.front();
  const bool writes = options.workload != "serve_read";
  // Dispatch per endpoint: the first planned request of each read label.
  std::vector<std::string> done;
  std::vector<std::pair<std::string, std::string>> lookup_pairs;
  for (std::uint64_t g = kProbeStream; done.size() < kReadEndpoints; ++g) {
    const Planned p = plan(options.seed, seeded, false, g);
    if (std::find(done.begin(), done.end(), p.label) != done.end()) {
      continue;
    }
    done.push_back(p.label);
    const svc::Request request{p.endpoint, p.params};
    const bool analytic = p.kind == Kind::kAnalytic;
    svc::Response response;
    repeat(analytic ? 40 : 400, analytic ? 0.25 : 0.1, [&](int) {
      const auto start = Clock::now();
      response = server.dispatch(request);
      report.add("svc.dispatch_" + p.label + "_us", since_us(start));
    });
    report.check(response.ok, "probe dispatch: " + p.label);
    if (!analytic) {
      lookup_pairs.emplace_back(dumped(request), dumped(response));
    }
  }
  // The lookup mix as the stream draws it, for the lookup path's breakdown.
  int lookups = 0;
  for (std::uint64_t g = kProbeStream; lookups < 400; ++g) {
    const Planned p = plan(options.seed, seeded, writes, g);
    if (p.kind != Kind::kLookup) {
      continue;
    }
    ++lookups;
    const svc::Request request{p.endpoint, p.params};
    const auto start = Clock::now();
    server.dispatch(request);
    report.add("svc.dispatch_lookup_us", since_us(start));
  }
  probe_transport(lookup_pairs, "svc.transport_us", report);

  // The layers under dispatch, on a private clone of the repository.
  const std::unique_ptr<persist::KnowledgeRepository> clone =
      persist::KnowledgeRepository::clone_of(*deployment.primary_repo);
  repeat(400, 0.1, [&](int i) {
    const std::size_t k = static_cast<std::size_t>(i * 7919) % seeded.ids.size();
    const std::string sql = "SELECT id FROM performances WHERE command = '" +
                            seeded.objects[k].command + "'";
    const auto start = Clock::now();
    clone->database().execute(sql);
    report.add("db.point_us", since_us(start));
  });
  double rows_out = 0;
  repeat(40, 0.2, [&](int) {
    const auto start = Clock::now();
    rows_out = static_cast<double>(
        clone->database().execute("SELECT id, command FROM performances").rows.size());
    report.add("db.scan_us", since_us(start));
  });
  report.values["db.rows_out"] = rows_out;

  std::vector<usage::TrainingSample> samples;
  repeat(20, 0.3, [&](int) {
    const auto start = Clock::now();
    samples = usage::build_training_set(*clone, "write");
    report.add("usage.train_us", since_us(start));
  });
  report.values["usage.samples"] = static_cast<double>(samples.size());
  const usage::ConfigFeatures query =
      usage::ConfigFeatures::from_command(query_commands()[0]);
  repeat(200, 0.1, [&](int) {
    const auto start = Clock::now();
    usage::BandwidthPredictor::fit(samples);
    report.add("usage.fit_us", since_us(start));
  });
  repeat(200, 0.1, [&](int) {
    const auto start = Clock::now();
    usage::knn_predict(samples, query);
    report.add("usage.knn_us", since_us(start));
  });
  const gen::IorConfig target = gen::parse_ior_command(query_commands()[0]);
  repeat(20, 0.3, [&](int) {
    const auto start = Clock::now();
    usage::recommend(*clone, target, "write");
    report.add("usage.recommend_us", since_us(start));
  });
  repeat(400, 0.1, [&](int i) {
    const std::int64_t id =
        seeded.ids[static_cast<std::size_t>(i * 7919) % seeded.ids.size()];
    auto start = Clock::now();
    const knowledge::Knowledge object = clone->load_knowledge(id);
    report.add("persist.load_us", since_us(start));
    start = Clock::now();
    analysis::detect_in_knowledge(object);
    report.add("analysis.detect_us", since_us(start));
  });

  // Snapshot acquisition through a store wrapping the clone: cached, then
  // the first acquisition after a write.
  svc::SnapshotStore store(*clone);
  store.snapshot();
  repeat(2000, 0.05, [&](int) {
    const auto start = Clock::now();
    store.snapshot();
    report.add("svc.snapshot_fresh_us", since_us(start));
  });
  repeat(30, 0.3, [&](int i) {
    const knowledge::Knowledge object = synthetic_knowledge(
        options.seed, kStoredIndexBase - 1 - static_cast<std::uint64_t>(i));
    store.with_write([&](persist::KnowledgeRepository& r) { r.store(object); });
    const auto start = Clock::now();
    store.snapshot();
    report.add("svc.snapshot_rebuild_us", since_us(start));
  });
}

/// Write-side layer probes: the store endpoint, the repository commit with
/// its journal fsync, and (quorum) the replica ack wait. Every write is
/// recorded as acked so the round's closing checks cover it.
void probe_writes(const Options& options, Deployment& deployment,
                  Report& report, std::vector<Acked>& acked) {
  svc::Server& server = deployment.front();
  const std::uint64_t base = kStoredIndexBase + kProbeStream;
  std::vector<std::pair<std::string, std::string>> store_pairs;
  repeat(30, 0.5, [&](int i) {
    const std::uint64_t index = base + static_cast<std::uint64_t>(i);
    const svc::Request request{
        "knowledge/store",
        object_params({{"object", synthetic_knowledge(options.seed, index).to_json()}})};
    const auto start = Clock::now();
    const svc::Response response = server.dispatch(request);
    report.add("svc.dispatch_store_us", since_us(start));
    const util::JsonValue* replication =
        response.ok ? response.result.find("replication") : nullptr;
    const bool ok = response.ok && (replication == nullptr ||
                                    replication->as_string() == "acked");
    report.check(ok, "probe dispatch: store");
    if (ok) {
      acked.push_back({response.result.at("id").as_int(), index});
      if (store_pairs.empty()) {
        store_pairs.emplace_back(dumped(request), dumped(response));
      }
    }
  });
  if (!store_pairs.empty()) {
    probe_transport(store_pairs, "svc.transport_store_us", report);
  }

  const std::string journal =
      db::journal_path_for(deployment.primary_path().string());
  repeat(30, 0.5, [&](int i) {
    const std::uint64_t index = base + 1000 + static_cast<std::uint64_t>(i);
    const knowledge::Knowledge object = synthetic_knowledge(options.seed, index);
    std::error_code error;
    const auto before = fs::file_size(journal, error);
    std::int64_t id = 0;
    server.with_repository_write([&](persist::KnowledgeRepository& r) {
      const auto start = Clock::now();
      id = r.store(object);
      report.add("persist.store_us", since_us(start));
    });
    const auto after = fs::file_size(journal, error);
    if (!error && after >= before) {
      report.add("persist.journal_bytes_per_write",
                 static_cast<double>(after - before));
    }
    bool ok = true;
    if (deployment.cluster) {
      const std::uint64_t seq = deployment.primary_repo->applied_seq();
      const auto start = Clock::now();
      ok = deployment.primary->shipper().wait_for_acks(seq);
      report.add("repl.ack_wait_us", since_us(start));
    }
    report.check(ok, "probe: quorum ack timeout");
    acked.push_back({id, index});
  });
}

/// Every acked object must load back with the command it was stored with.
void check_acked(const Options& options, persist::KnowledgeRepository& repository,
                 const std::vector<Acked>& acked, const std::string& when,
                 Report& report) {
  for (const Acked& a : acked) {
    bool ok = false;
    try {
      ok = repository.load_knowledge(a.id).command ==
           synthetic_knowledge(options.seed, a.object_index).command;
    } catch (const Error&) {
    }
    report.check(ok, "acked write unreadable " + when);
  }
}

/// The round's closing checks, then its tear-down: on a cluster no ack
/// timeouts and every replica at the primary's applied_seq; every acked
/// write readable after the drain and again after the file database is
/// reopened.
void finish_round(const Options& options, Deployment& deployment,
                  const std::vector<Acked>& acked, Report& report) {
  if (deployment.cluster) {
    report.check(shipper_counter(deployment, "ack_timeouts") == 0,
                 "quorum ack timeouts");
    const std::uint64_t primary_seq = deployment.primary_repo->applied_seq();
    for (auto& node : deployment.replicas) {
      node->replication().wait_applied(primary_seq, 10000);
      report.check(node->replication().applied_seq() == primary_seq,
                   "replica applied_seq != primary applied_seq");
    }
  }
  deployment.stop();
  check_acked(options, *deployment.primary_repo, acked, "after drain", report);
  deployment.replicas.clear();
  deployment.primary.reset();
  deployment.server.reset();
  deployment.primary_repo.reset();
  deployment.primary_repo = std::make_unique<persist::KnowledgeRepository>(
      persist::RepoTarget::parse("file:" + deployment.primary_path().string()));
  check_acked(options, *deployment.primary_repo, acked, "after reopen", report);
  deployment.destroy();
}

/// The per-layer values taken from server and shipper counters over the
/// untraced rounds.
void counter_values(const Counters& window, double written, double batches,
                    double records, double timeouts,
                    const std::vector<std::uint64_t>& reads_per_target,
                    bool cluster, Report& report) {
  const double requests = std::max(1.0, window.requests);
  report.values["svc.bytes_in_per_req"] = window.bytes_in / requests;
  report.values["svc.bytes_out_per_req"] = window.bytes_out / requests;
  // Per write when the rounds wrote; on serve_read the raw counts, which
  // should stay zero.
  report.values["svc.snapshot_full_rebuilds"] = window.full / std::max(1.0, written);
  report.values["svc.snapshot_delta_applies"] = window.delta / std::max(1.0, written);
  const double lookups = window.hits + window.misses;
  report.values["db.stmt_cache_hit_ratio"] =
      lookups > 0 ? window.hits / lookups : 0.0;
  if (!cluster) {
    return;
  }
  report.values["repl.batches_shipped"] = batches;
  report.values["repl.records_per_batch"] = batches > 0 ? records / batches : 0.0;
  report.values["repl.ack_timeouts"] = timeouts;
  double max_reads = 0;
  double total_reads = 0;
  for (const std::uint64_t reads : reads_per_target) {
    max_reads = std::max(max_reads, static_cast<double>(reads));
    total_reads += static_cast<double>(reads);
  }
  report.values["repl.read_skew"] =
      total_reads > 0
          ? max_reads / (total_reads / static_cast<double>(reads_per_target.size()))
          : 0.0;
}

}  // namespace

void run_serve(const Options& options, Report& report) {
  const bool writes = options.workload != "serve_read";
  Seeded seeded;
  for (std::size_t i = 0; i < kSeedObjects; ++i) {
    seeded.objects.push_back(synthetic_knowledge(options.seed, i));
    report.mix(seeded.objects.back().to_json().dump());
  }
  const svc::ServerConfig defaults;
  report.info["server_config"] =
      "default: threads=" + std::to_string(defaults.threads) +
      " request_timeout_ms=" + std::to_string(defaults.request_timeout_ms) +
      " max_frame_bytes=" + std::to_string(defaults.max_frame_bytes);
  report.info["clients"] = std::to_string(client_count()) +
                           " closed-loop connections, one thread each";
  report.info["rounds"] = std::to_string(kRoundRequests) +
                          " requests each, on a fresh deployment";
  report.info["repository"] = "file-backed, " + std::to_string(kSeedObjects) +
                              " seeded IOR objects";
  if (writes) {
    report.info["journal"] = "group commit, one fsync per batch (default)";
  }
  if (options.workload == "serve_quorum") {
    report.info["cluster"] = "primary + " + std::to_string(kReplicas) +
                             " replicas, AckPolicy::kQuorum";
  }

  // Only serve_read checks predict: writes move the answer.
  std::vector<Prediction> predictions;
  Report traced;
  Counters window;  // server counters over the untraced rounds
  double written = 0, batches = 0, records = 0, timeouts = 0;
  std::vector<std::uint64_t> reads_per_target;
  // The budget counts whole rounds, deployment and checks included, so a
  // run's wall time follows --seconds. A round is the last when another
  // one as long as the previous would overrun it.
  const int passes = options.trace ? 2 : 1;
  const auto run_start = Clock::now();
  double round_wall = 0.0;
  for (int round = 0;; ++round) {
    const bool is_traced = round % passes == 1;
    const bool last =
        round + 1 >= passes && since_s(run_start) + 2 * round_wall > options.seconds;
    const auto start = Clock::now();
    const std::unique_ptr<Deployment> deployment = deploy(options, seeded, round);
    report.setup_s.push_back(since_s(start));
    if (round == 0) {
      for (std::uint64_t g = 0; g < kRoundRequests; ++g) {
        report.mix(plan(options.seed, seeded, writes, g).params.dump());
      }
      if (!writes) {
        predictions = direct_predictions(*deployment->primary_repo);
      }
    }
    const Counters before = server_counters(*deployment);
    const auto shipped = [&](const char* key) {
      return deployment->cluster ? shipper_counter(*deployment, key) : 0.0;
    };
    const double batches_before = shipped("shipped_batches");
    const double records_before = shipped("shipped_records");
    std::vector<Acked> acked;
    std::vector<std::uint64_t> round_reads;
    const double served = run_round(
        options, seeded, predictions, *deployment,
        static_cast<std::uint64_t>(round) * kRoundRequests, is_traced,
        report.window_s, is_traced ? traced : report, acked, round_reads);
    if (!is_traced) {
      report.window_s += served;
      report.add("segment_end_s", report.window_s);  // rounds are the segments
      window.add(server_counters(*deployment), before);
      written += static_cast<double>(acked.size());
      batches += shipped("shipped_batches") - batches_before;
      records += shipped("shipped_records") - records_before;
      timeouts += shipped("ack_timeouts");
      reads_per_target.resize(std::max(reads_per_target.size(), round_reads.size()));
      for (std::size_t t = 0; t < round_reads.size(); ++t) {
        reads_per_target[t] += round_reads[t];
      }
    }
    if (options.trace && last) {
      counter_values(window, written, batches, records, timeouts,
                     reads_per_target, deployment->cluster, report);
      probe_reads(options, seeded, *deployment, report);
      probe_writes(options, *deployment, report, acked);
    }
    finish_round(options, *deployment, acked, report);
    if (last) {
      break;
    }
    round_wall = since_s(start);
  }
  traced.ops = 0;  // throughput comes from the untraced rounds only
  report.merge(traced);
}

}  // namespace perfbench
