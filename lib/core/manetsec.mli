(** Public facade: one namespace over every subsystem of the
    reproduction.

    - {!Crypto}: PRNG, bignums, SHA-256, HMAC, RSA and the signature
      suite abstraction.
    - {!Ipv6}: addresses and cryptographically generated addresses
      (CGA, Figure 1).
    - {!Sim}: the discrete-event engine, topologies, mobility, the
      simulated radio, stats and traces.
    - {!Obs} / {!Obs_json} / {!Obs_report}: causal telemetry spans,
      the hand-rolled JSON codec, and JSONL / run-report export and
      querying.
    - {!Audit} / {!Metrics} / {!Detector}: the security observability
      layer — the typed audit event stream, windowed metrics, and the
      online misbehaviour detector.
    - {!Proto}: Table 1 message types, wire-size model, node identity.
    - {!Dad}: secure duplicate address detection (§3.1).
    - {!Dns} / {!Dns_client}: the DNS server and host-side services
      (§3.2).
    - {!Dsr} / {!Route_cache}: the plain DSR baseline.
    - {!Secure_routing} / {!Credit}: the paper's secure routing and
      credit management (§3.3-3.4).
    - {!Faults} / {!Resilience}: deterministic fault injection (node
      churn, link flaps, partitions, bursty channels) and recovery
      metrics.
    - {!Merge}: deterministic merging of per-run exports, which
      [Manet_scenario.Scn.sweep] uses to fan scenario files across
      seeds and domains (via {!Sim}[.Parallel]).
    - {!Adversary}: the §4 attack behaviours, against every protocol.
    - {!Aodv}: the AODV and SAODV-style comparison protocol (the
      paper's "other routing protocols" future work), run like the
      others through {!Scenario}.
    - {!Scenario}: whole-network orchestration for experiments and
      examples. *)

module Crypto = Manet_crypto
module Ipv6 = Manet_ipv6
module Sim = Manet_sim
module Obs = Manet_obs.Obs
module Obs_json = Manet_obs.Json
module Obs_report = Manet_obs.Report
module Perf = Manet_obs.Perf
module Timeline = Manet_obs.Timeline
module Flood = Manet_obs.Flood
module Merge = Manet_obs.Merge
module Audit = Manet_obs.Audit
module Metrics = Manet_obs.Metrics
module Detector = Manet_obs.Detector
module Proto = Manet_proto
module Dad = Manet_dad.Dad
module Dns = Manet_dns.Dns
module Dns_client = Manet_dns.Client
module Dsr = Manet_dsr.Dsr
module Route_cache = Manet_dsr.Route_cache
module Secure_routing = Manet_secure.Secure_routing
module Credit = Manet_secure.Credit
module Srp = Manet_secure.Srp
module Faults = Manet_faults.Faults
module Resilience = Manet_faults.Resilience
module Adversary = Manet_attacks.Adversary
module Aodv = Manet_aodv.Aodv
module Scenario = Scenario
