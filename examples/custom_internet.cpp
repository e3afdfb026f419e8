// Building a hand-crafted Internet and mapping it — the library as an API.
//
// Instead of the statistical generator, this example constructs the exact
// topology of the paper's Figure 1 by hand (ASes A, B, C, D plus a VP
// network), wires routing and probing over it, runs bdrmap, and prints the
// inference for each router. Useful as a template for experimenting with
// pathological configurations.
#include <cstdio>

#include "core/bdrmap.h"
#include "probe/alias.h"
#include "route/bgp_sim.h"
#include "route/collectors.h"
#include "route/fib.h"
#include "runtime/multi_vp.h"
#include "topo/internet.h"

using namespace bdrmap;

int main() {
  topo::Internet net;
  std::uint32_t pop = net.add_pop({"Lab", -100.0, 40.0});

  // Organizations and ASes: X hosts the VP; A is X's provider; B peers
  // with X; D is an enterprise customer of B that firewalls probes.
  auto make_as = [&](topo::AsKind kind, const char* name) {
    static std::uint32_t org = 1;
    return net.add_as(kind, net::OrgId(org++), name);
  };
  net::AsId x = make_as(topo::AsKind::kAccess, "X-hosting");
  net::AsId a = make_as(topo::AsKind::kTransit, "A-provider");
  net::AsId b = make_as(topo::AsKind::kTransit, "B-peer");
  net::AsId d = make_as(topo::AsKind::kEnterprise, "D-enterprise");

  auto& rels = net.truth_relationships();
  rels.add_c2p(x, a);  // X buys transit from A
  rels.add_p2p(x, b);  // X peers with B
  rels.add_c2p(d, b);  // D buys transit from B

  // Routers. X: two (core + border). Others: one each, except D's border
  // which filters probes at the edge (Figure 1's R5).
  topo::RouterBehavior plain;
  auto rx1 = net.add_router(x, pop, plain);
  auto rx2 = net.add_router(x, pop, plain);
  auto ra = net.add_router(a, pop, plain);
  auto rb = net.add_router(b, pop, plain);
  topo::RouterBehavior firewalled;
  firewalled.firewall_edge = true;
  auto rd = net.add_router(d, pop, firewalled);

  auto ip = [](const char* s) { return *net::Ipv4Addr::parse(s); };
  auto pfx = [](const char* s) { return *net::Prefix::parse(s); };

  auto link = [&](topo::LinkKind kind, net::AsId supplier, net::RouterId r1,
                  const char* a1, net::RouterId r2, const char* a2) {
    topo::LinkId l = net.add_link(kind, net::Prefix(ip(a1), 30), supplier,
                                  {{r1, ip(a1)}, {r2, ip(a2)}});
    if (kind != topo::LinkKind::kInternal) {
      net.record_interdomain({l, net.router(r1).owner, net.router(r2).owner,
                              r1, r2, false});
    }
  };
  link(topo::LinkKind::kInternal, x, rx1, "10.0.0.1", rx2, "10.0.0.2");
  link(topo::LinkKind::kInterdomain, a, rx2, "20.0.9.1", ra, "20.0.9.2");
  link(topo::LinkKind::kInterdomain, x, rx2, "10.0.9.1", rb, "10.0.9.2");
  link(topo::LinkKind::kInterdomain, b, rb, "30.0.9.1", rd, "30.0.9.2");

  net.add_announced({pfx("10.0.0.0/16"), x, rx1, {}, 1.0});
  net.add_announced({pfx("20.0.0.0/16"), a, ra, {}, 1.0});
  net.add_announced({pfx("30.0.0.0/16"), b, rb, {}, 1.0});
  net.add_announced({pfx("40.0.0.0/16"), d, rd, {}, 1.0});

  // Routing and the public BGP view.
  route::BgpSimulator bgp(net);
  route::Fib fib(net, bgp);
  route::CollectorConfig cc;
  cc.exclude_featured_access = false;
  cc.transit_peer_fraction = 1.0;  // tiny lab net: full collector view
  cc.access_peer_fraction = 1.0;
  route::CollectorView collectors(net, bgp, cc);
  asdata::RelationshipInferenceConfig ric;
  ric.clique_seed_size = 2;  // A and B are the "top" of this lab Internet
  auto inferred_rels = collectors.infer_relationships(ric);

  // One VP: a factory for its probe stacks and its §5.2 inputs, run by
  // the executor that every bdrmap run goes through.
  const topo::Vp vp{x, rx1, ip("10.0.200.1"), pop};
  runtime::VpJob job;
  job.make_services = [&](std::uint64_t seed) {
    return std::make_shared<probe::LocalProbeServices>(net, fib, vp, seed);
  };
  job.inputs.origins = &collectors.public_origins();
  job.inputs.rels = &inferred_rels;
  job.inputs.ixps = &net.ixp_directory();
  job.inputs.rir = &net.rir();
  job.inputs.siblings = &net.sibling_table();
  job.inputs.vp_ases = {x};

  const core::BdrmapResult result =
      runtime::MultiVpExecutor(nullptr).run({job}, {}, 1).per_vp.front();

  std::printf("inferred routers:\n");
  const core::RouterGraph& graph = result.graph;
  for (std::size_t i = 0; i < graph.routers().size(); ++i) {
    const core::GraphRouter& r = graph.routers()[i];
    if (graph.merged_away(i) || graph.ttl_ids(i).empty()) continue;
    std::printf("  %-14s owner=%-5s %s%s\n",
                graph.addrs(i).front().str().c_str(),
                r.owner.valid() ? r.owner.str().c_str() : "?",
                core::heuristic_name(r.how), r.vp_side ? "  [VP side]" : "");
  }
  std::printf("\ninferred interdomain links:\n");
  for (const auto& inferred : result.links) {
    std::printf("  -> %s via %s\n", inferred.neighbor_as.str().c_str(),
                core::heuristic_name(inferred.how));
  }
  std::printf("\nexpected: X's two routers VP-side; A's router by IP-AS; "
              "B's router inferred\nbehind its X-supplied address; D (a "
              "customer of B, not of X) is B's problem,\nits firewalled "
              "border showing only B-space.\n");
  return 0;
}
