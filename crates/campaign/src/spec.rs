//! The declarative campaign specification and its deterministic expansion
//! into simulation points.
//!
//! A campaign is a cartesian product over up to ten axes — topology,
//! traffic, scheme, routing, VC allocation, VC count, buffer depth, packet
//! length, offered load, and seed — plus one set of run phases shared by
//! every point. Specs are written in TOML or JSON (decided by file
//! extension; both map onto the same [`crate::value::Value`] tree):
//!
//! ```toml
//! name = "fig12-mesh"
//!
//! [phases]
//! warmup = 1000
//! measure = 10000
//! drain = 100000
//!
//! [axes]
//! topology = "mesh8x8"
//! traffic = "ur"
//! scheme = ["baseline", "pseudo+ps+bb"]
//! routing = "xy"
//! load = [0.02, 0.05, 0.1, 0.2, 0.3]
//! seed = 1
//! ```
//!
//! Every axis accepts a scalar (a one-value axis) or an array; omitted axes
//! take the CLI's defaults. Expansion is **deterministic** — nested loops in
//! the fixed axis order topology → traffic → scheme → routing → va → vcs →
//! buffer → packet → load → seed, each axis in spec order — and
//! **duplicate-free** — repeated values within an axis are a parse error, so
//! the cartesian product cannot contain two identical points. Both
//! properties are pinned by property tests (`tests/prop_campaign.rs`).

use crate::value::{parse_json, parse_toml, Value};
use crate::Error;
use noc_base::{RoutingPolicy, VaPolicy};
use noc_sim::NetworkConfig;
use pseudo_circuit::Scheme;
use std::collections::BTreeMap;
use std::fmt;

/// A router scheme named by a campaign axis or the `noc` CLI: one of the
/// paper's five pseudo-circuit configurations, or a comparison scheme.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SchemeChoice {
    /// A `pseudo-circuit` crate scheme.
    Pc(Scheme),
    /// The Express-Virtual-Channels router.
    Evc,
    /// The profiled-hybrid-switching router.
    Hybrid,
}

/// Every canonical scheme name, in display order — the single vocabulary
/// shared by `--scheme`, campaign `scheme` axes, and `noc list`. Each entry
/// satisfies `SchemeChoice::parse(name).canonical() == name`.
pub const SCHEME_NAMES: &[&str] = &[
    "baseline",
    "pseudo",
    "pseudo+ps",
    "pseudo+bb",
    "pseudo+ps+bb",
    "evc",
    "hybrid",
];

impl SchemeChoice {
    /// Parses a scheme name as accepted by `--scheme` and campaign axes.
    ///
    /// # Errors
    ///
    /// Returns an [`Error`] for unknown names.
    pub fn parse(s: &str) -> Result<Self, Error> {
        Ok(match s.to_ascii_lowercase().as_str() {
            "baseline" => SchemeChoice::Pc(Scheme::baseline()),
            "pseudo" => SchemeChoice::Pc(Scheme::pseudo()),
            "pseudo+ps" => SchemeChoice::Pc(Scheme::pseudo_ps()),
            "pseudo+bb" => SchemeChoice::Pc(Scheme::pseudo_bb()),
            "pseudo+ps+bb" | "full" => SchemeChoice::Pc(Scheme::pseudo_ps_bb()),
            "evc" => SchemeChoice::Evc,
            "hybrid" => SchemeChoice::Hybrid,
            other => return Err(Error(format!("unknown scheme {other:?}"))),
        })
    }

    /// The canonical lower-case spec name (`parse(canonical()) == self`).
    pub fn canonical(&self) -> &'static str {
        match self {
            SchemeChoice::Pc(s) => match (s.pseudo_circuit, s.speculation, s.buffer_bypass) {
                (false, _, _) => "baseline",
                (true, false, false) => "pseudo",
                (true, true, false) => "pseudo+ps",
                (true, false, true) => "pseudo+bb",
                (true, true, true) => "pseudo+ps+bb",
            },
            SchemeChoice::Evc => "evc",
            SchemeChoice::Hybrid => "hybrid",
        }
    }

    /// The display label stamped into run manifests (`Pseudo+PS+BB`, `EVC`)
    /// — part of the config-hash key, so it must match what `noc run
    /// --manifest` records.
    pub fn label(&self) -> String {
        match self {
            SchemeChoice::Pc(s) => s.to_string(),
            SchemeChoice::Evc => "EVC".to_string(),
            SchemeChoice::Hybrid => "Hybrid".to_string(),
        }
    }
}

/// Parses a routing-policy name (`xy`, `yx`, `o1turn`).
///
/// # Errors
///
/// Returns an [`Error`] for unknown names.
pub fn parse_routing(s: &str) -> Result<RoutingPolicy, Error> {
    match s.to_ascii_lowercase().as_str() {
        "xy" => Ok(RoutingPolicy::Xy),
        "yx" => Ok(RoutingPolicy::Yx),
        "o1turn" => Ok(RoutingPolicy::O1Turn),
        other => Err(Error(format!("unknown routing {other:?}"))),
    }
}

/// Parses a VC-allocation-policy name (`static`, `dynamic`).
///
/// # Errors
///
/// Returns an [`Error`] for unknown names.
pub fn parse_va(s: &str) -> Result<VaPolicy, Error> {
    match s.to_ascii_lowercase().as_str() {
        "static" => Ok(VaPolicy::Static),
        "dynamic" => Ok(VaPolicy::Dynamic),
        other => Err(Error(format!("unknown VA policy {other:?}"))),
    }
}

/// The canonical spec name of a routing policy.
pub fn routing_name(r: RoutingPolicy) -> &'static str {
    match r {
        RoutingPolicy::Xy => "xy",
        RoutingPolicy::Yx => "yx",
        RoutingPolicy::O1Turn => "o1turn",
    }
}

/// The canonical spec name of a VC-allocation policy.
pub fn va_name(v: VaPolicy) -> &'static str {
    match v {
        VaPolicy::Static => "static",
        VaPolicy::Dynamic => "dynamic",
    }
}

/// One fully-specified simulation point: every coordinate an expansion
/// fixes, plus the campaign's shared run phases.
#[derive(Clone, PartialEq, Debug)]
pub struct PointSpec {
    /// Topology spec string (`mesh8x8`, `cmesh4x4`, `mesh<W>x<H>[c<C>]`...).
    pub topology: String,
    /// Traffic spec: synthetic pattern name or benchmark name.
    pub traffic: String,
    /// Router scheme.
    pub scheme: SchemeChoice,
    /// Routing algorithm.
    pub routing: RoutingPolicy,
    /// VC allocation policy.
    pub va: VaPolicy,
    /// Virtual channels per port.
    pub vcs: u8,
    /// Buffer depth per VC.
    pub buffer: u32,
    /// Packet length in flits (synthetic traffic only).
    pub packet: u16,
    /// Offered load in flits/node/cycle (synthetic traffic only).
    pub load: f64,
    /// Experiment seed.
    pub seed: u64,
    /// Warmup cycles.
    pub warmup: u64,
    /// Measurement cycles.
    pub measure: u64,
    /// Drain-limit cycles.
    pub drain: u64,
}

impl PointSpec {
    /// The point's curve key: every coordinate except load. Points sharing a
    /// curve key form one latency–throughput curve in the merged report.
    pub fn curve_key(&self) -> String {
        format!(
            "{}/{}/{}/{}/{}/vcs{}/buf{}/pkt{}/seed{}",
            self.topology,
            self.traffic,
            self.scheme.canonical(),
            routing_name(self.routing),
            va_name(self.va),
            self.vcs,
            self.buffer,
            self.packet,
            self.seed
        )
    }
}

impl fmt::Display for PointSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} load{:?}", self.curve_key(), self.load)
    }
}

/// The per-axis value lists a campaign sweeps, in spec order.
#[derive(Clone, PartialEq, Debug)]
pub struct Axes {
    /// Topology spec strings.
    pub topology: Vec<String>,
    /// Traffic names.
    pub traffic: Vec<String>,
    /// Router schemes.
    pub scheme: Vec<SchemeChoice>,
    /// Routing policies.
    pub routing: Vec<RoutingPolicy>,
    /// VC-allocation policies.
    pub va: Vec<VaPolicy>,
    /// VC counts per port.
    pub vcs: Vec<u8>,
    /// Buffer depths per VC.
    pub buffer: Vec<u32>,
    /// Packet lengths in flits.
    pub packet: Vec<u16>,
    /// Offered loads.
    pub load: Vec<f64>,
    /// Experiment seeds.
    pub seed: Vec<u64>,
}

impl Default for Axes {
    fn default() -> Self {
        Self {
            topology: vec!["mesh8x8".into()],
            traffic: vec!["ur".into()],
            scheme: vec![SchemeChoice::Pc(Scheme::pseudo_ps_bb())],
            routing: vec![RoutingPolicy::Xy],
            va: vec![VaPolicy::Static],
            vcs: vec![4],
            buffer: vec![4],
            packet: vec![5],
            load: vec![0.10],
            seed: vec![1],
        }
    }
}

/// A parsed, validated campaign specification.
#[derive(Clone, PartialEq, Debug)]
pub struct CampaignSpec {
    /// Campaign name (report header; defaults to `"campaign"`).
    pub name: String,
    /// Warmup cycles for every point.
    pub warmup: u64,
    /// Measurement cycles for every point.
    pub measure: u64,
    /// Drain-limit cycles for every point.
    pub drain: u64,
    /// The swept axes.
    pub axes: Axes,
}

impl Default for CampaignSpec {
    fn default() -> Self {
        Self {
            name: "campaign".into(),
            warmup: 1_000,
            measure: 10_000,
            drain: 100_000,
            axes: Axes::default(),
        }
    }
}

impl CampaignSpec {
    /// Parses a spec from TOML text.
    ///
    /// # Errors
    ///
    /// Returns an [`Error`] for syntax errors, unknown keys or axes,
    /// wrongly-typed values, duplicate axis values, or empty axes.
    pub fn parse_toml_str(text: &str) -> Result<Self, Error> {
        let table = parse_toml(text).map_err(|e| Error(format!("spec: {e}")))?;
        Self::from_table(&table)
    }

    /// Parses a spec from JSON text (same schema, `{"axes": {...}}`).
    ///
    /// # Errors
    ///
    /// As [`CampaignSpec::parse_toml_str`].
    pub fn parse_json_str(text: &str) -> Result<Self, Error> {
        let value = parse_json(text).map_err(|e| Error(format!("spec: {e}")))?;
        let table = value
            .as_table()
            .ok_or_else(|| Error("spec: JSON document must be an object".into()))?;
        Self::from_table(table)
    }

    /// Parses a spec file, picking the format by extension (`.json` is JSON,
    /// anything else TOML).
    ///
    /// # Errors
    ///
    /// Returns an [`Error`] for unreadable files or any parse failure.
    pub fn load(path: &std::path::Path) -> Result<Self, Error> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| Error(format!("cannot read spec {}: {e}", path.display())))?;
        if path.extension().is_some_and(|e| e == "json") {
            Self::parse_json_str(&text)
        } else {
            Self::parse_toml_str(&text)
        }
    }

    fn from_table(table: &BTreeMap<String, Value>) -> Result<Self, Error> {
        for key in table.keys() {
            if !matches!(key.as_str(), "name" | "phases" | "axes") {
                return Err(Error(format!(
                    "spec: unknown top-level key {key:?} (expected name, [phases], [axes])"
                )));
            }
        }
        let mut spec = CampaignSpec::default();
        if let Some(name) = table.get("name") {
            spec.name = name
                .as_str()
                .ok_or_else(|| Error("spec: name must be a string".into()))?
                .to_string();
        }
        if let Some(phases) = table.get("phases") {
            let phases = phases
                .as_table()
                .ok_or_else(|| Error("spec: [phases] must be a table".into()))?;
            for (key, value) in phases {
                let n = value
                    .as_u64()
                    .ok_or_else(|| Error(format!("spec: phases.{key} must be an integer")))?;
                match key.as_str() {
                    "warmup" => spec.warmup = n,
                    "measure" => spec.measure = n,
                    "drain" => spec.drain = n,
                    other => {
                        return Err(Error(format!(
                            "spec: unknown phases key {other:?} (warmup, measure, drain)"
                        )))
                    }
                }
            }
        }
        if let Some(axes) = table.get("axes") {
            let axes = axes
                .as_table()
                .ok_or_else(|| Error("spec: [axes] must be a table".into()))?;
            spec.axes = Self::axes_from_table(axes)?;
        }
        Ok(spec)
    }

    fn axes_from_table(table: &BTreeMap<String, Value>) -> Result<Axes, Error> {
        let mut axes = Axes::default();
        for (key, value) in table {
            match key.as_str() {
                "topology" => axes.topology = strings(key, value)?,
                "traffic" => axes.traffic = strings(key, value)?,
                "scheme" => {
                    axes.scheme = strings(key, value)?
                        .iter()
                        .map(|s| SchemeChoice::parse(s))
                        .collect::<Result<_, _>>()?
                }
                "routing" => {
                    axes.routing = strings(key, value)?
                        .iter()
                        .map(|s| parse_routing(s))
                        .collect::<Result<_, _>>()?
                }
                "va" => {
                    axes.va = strings(key, value)?
                        .iter()
                        .map(|s| parse_va(s))
                        .collect::<Result<_, _>>()?
                }
                // Ranges the router kernel needs are checked by
                // `Axes::check_network_configs`, per topology and routing.
                "vcs" => axes.vcs = ints(key, value, 0, u8::MAX.into())?,
                "buffer" => axes.buffer = ints(key, value, 0, u32::MAX as u64)?,
                "packet" => axes.packet = ints(key, value, 1, u16::MAX as u64)?,
                "seed" => axes.seed = ints(key, value, 0, u64::MAX)?,
                "load" => {
                    axes.load = value
                        .as_array()
                        .map(|v| {
                            v.as_f64().filter(|l| *l > 0.0 && *l <= 1.0).ok_or_else(|| {
                                Error(format!("spec: axes.load values must be in (0, 1], got {v}"))
                            })
                        })
                        .collect::<Result<_, _>>()?
                }
                other => {
                    return Err(Error(format!(
                        "spec: unknown axis {other:?} (topology, traffic, scheme, routing, \
                         va, vcs, buffer, packet, load, seed)"
                    )))
                }
            }
        }
        axes.validate()?;
        axes.check_network_configs()?;
        Ok(axes)
    }

    /// Expands the spec into its full point set: the cartesian product of
    /// all axes, in the fixed axis order documented on this module, with the
    /// shared phases attached to every point. Deterministic and
    /// duplicate-free by construction.
    pub fn expand(&self) -> Vec<PointSpec> {
        let a = &self.axes;
        let mut points = Vec::with_capacity(self.num_points());
        for topology in &a.topology {
            for traffic in &a.traffic {
                for &scheme in &a.scheme {
                    for &routing in &a.routing {
                        for &va in &a.va {
                            for &vcs in &a.vcs {
                                for &buffer in &a.buffer {
                                    for &packet in &a.packet {
                                        for &load in &a.load {
                                            for &seed in &a.seed {
                                                points.push(PointSpec {
                                                    topology: topology.to_ascii_lowercase(),
                                                    traffic: traffic.to_ascii_lowercase(),
                                                    scheme,
                                                    routing,
                                                    va,
                                                    vcs,
                                                    buffer,
                                                    packet,
                                                    load,
                                                    seed,
                                                    warmup: self.warmup,
                                                    measure: self.measure,
                                                    drain: self.drain,
                                                });
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        points
    }

    /// The size of the expansion (product of axis lengths).
    pub fn num_points(&self) -> usize {
        let a = &self.axes;
        a.topology.len()
            * a.traffic.len()
            * a.scheme.len()
            * a.routing.len()
            * a.va.len()
            * a.vcs.len()
            * a.buffer.len()
            * a.packet.len()
            * a.load.len()
            * a.seed.len()
    }

    /// A stable identity for the expanded point set, used by the checkpoint
    /// file to detect that a resume is continuing the *same* campaign.
    pub fn spec_hash(&self) -> String {
        let rendered = format!(
            "{:?}|{:?}",
            (self.warmup, self.measure, self.drain),
            self.axes
        );
        format!("{:016x}", noc_sim::manifest::fnv1a64(rendered.as_bytes()))
    }
}

impl Axes {
    /// Rejects every topology × routing × vcs × buffer combination whose
    /// network configuration fails [`NetworkConfig::validate`], before any
    /// point runs; the error names the combination and the broken
    /// constraint. Builds each topology once (so an unknown topology is
    /// rejected here too).
    fn check_network_configs(&self) -> Result<(), Error> {
        for name in &self.topology {
            let topo = crate::runner::build_topology(name)?;
            for &routing in &self.routing {
                for &vcs in &self.vcs {
                    for &buffer in &self.buffer {
                        let config = NetworkConfig {
                            vcs_per_port: vcs,
                            buffer_depth: buffer,
                            routing,
                            va_policy: VaPolicy::default(),
                        };
                        config.validate(topo.as_ref()).map_err(|e| {
                            Error(format!(
                                "spec: topology {name:?}, routing {}, vcs {vcs}, buffer \
                                 {buffer}: {e}",
                                routing_name(routing)
                            ))
                        })?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Rejects empty axes and duplicate values within an axis (duplicates
    /// would make the cartesian product repeat points).
    fn validate(&self) -> Result<(), Error> {
        fn check<T: PartialEq + fmt::Debug>(name: &str, values: &[T]) -> Result<(), Error> {
            if values.is_empty() {
                return Err(Error(format!("spec: axis {name:?} is empty")));
            }
            for (i, v) in values.iter().enumerate() {
                if values[..i].contains(v) {
                    return Err(Error(format!(
                        "spec: axis {name:?} repeats value {v:?} (axes must be duplicate-free)"
                    )));
                }
            }
            Ok(())
        }
        let lowered: Vec<String> = self
            .topology
            .iter()
            .map(|s| s.to_ascii_lowercase())
            .collect();
        check("topology", &lowered)?;
        let lowered: Vec<String> = self
            .traffic
            .iter()
            .map(|s| s.to_ascii_lowercase())
            .collect();
        check("traffic", &lowered)?;
        check("scheme", &self.scheme)?;
        check("routing", &self.routing)?;
        check("va", &self.va)?;
        check("vcs", &self.vcs)?;
        check("buffer", &self.buffer)?;
        check("packet", &self.packet)?;
        // Loads compare by bit pattern (exact duplicates only) but the
        // duplicate error must name the value as the user wrote it, not
        // its bits.
        struct LoadBits(f64);
        impl PartialEq for LoadBits {
            fn eq(&self, other: &Self) -> bool {
                self.0.to_bits() == other.0.to_bits()
            }
        }
        impl fmt::Debug for LoadBits {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:?}", self.0)
            }
        }
        let loads: Vec<LoadBits> = self.load.iter().map(|&l| LoadBits(l)).collect();
        check("load", &loads)?;
        check("seed", &self.seed)
    }
}

fn strings(key: &str, value: &Value) -> Result<Vec<String>, Error> {
    value
        .as_array()
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| Error(format!("spec: axes.{key} values must be strings, got {v}")))
        })
        .collect()
}

fn ints<T: TryFrom<u64>>(key: &str, value: &Value, min: u64, max: u64) -> Result<Vec<T>, Error> {
    value
        .as_array()
        .map(|v| {
            let n = v
                .as_u64()
                .filter(|n| *n >= min && *n <= max)
                .ok_or_else(|| {
                    Error(format!(
                        "spec: axes.{key} values must be integers in [{min}, {max}], got {v}"
                    ))
                })?;
            T::try_from(n).map_err(|_| Error(format!("spec: axes.{key} value {n} out of range")))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = "\
name = \"t\"

[phases]
warmup = 10
measure = 20
drain = 30

[axes]
topology = \"mesh2x2\"
scheme = [\"baseline\", \"evc\"]
load = [0.05, 0.1]
";

    #[test]
    fn toml_spec_parses_with_defaults() {
        let spec = CampaignSpec::parse_toml_str(SPEC).unwrap();
        assert_eq!(spec.name, "t");
        assert_eq!((spec.warmup, spec.measure, spec.drain), (10, 20, 30));
        assert_eq!(spec.axes.topology, vec!["mesh2x2"]);
        assert_eq!(spec.axes.scheme.len(), 2);
        assert_eq!(spec.axes.traffic, vec!["ur"], "omitted axes default");
        assert_eq!(spec.num_points(), 4);
    }

    #[test]
    fn json_spec_parses_identically() {
        let json = "{\"name\": \"t\", \
                     \"phases\": {\"warmup\": 10, \"measure\": 20, \"drain\": 30}, \
                     \"axes\": {\"topology\": \"mesh2x2\", \
                                \"scheme\": [\"baseline\", \"evc\"], \
                                \"load\": [0.05, 0.1]}}";
        assert_eq!(
            CampaignSpec::parse_json_str(json).unwrap(),
            CampaignSpec::parse_toml_str(SPEC).unwrap()
        );
    }

    #[test]
    fn expansion_order_is_fixed_and_complete() {
        let spec = CampaignSpec::parse_toml_str(SPEC).unwrap();
        let points = spec.expand();
        assert_eq!(points.len(), 4);
        // scheme is an outer loop relative to load.
        assert_eq!(points[0].scheme.canonical(), "baseline");
        assert_eq!(points[0].load, 0.05);
        assert_eq!(points[1].load, 0.1);
        assert_eq!(points[2].scheme.canonical(), "evc");
        assert_eq!(points[0].warmup, 10);
        assert_eq!(points[0].curve_key(), points[1].curve_key());
        assert_ne!(points[0].curve_key(), points[2].curve_key());
    }

    #[test]
    fn bad_specs_are_rejected_with_reasons() {
        let cases: &[(&str, &str)] = &[
            ("nonsense = 1\n", "unknown top-level"),
            ("[axes]\nwidgets = 3\n", "unknown axis"),
            ("[axes]\nload = [0.1, 0.1]\n", "duplicate-free"),
            ("[axes]\nload = []\n", "empty"),
            ("[axes]\nload = [1.5]\n", "(0, 1]"),
            ("[axes]\nscheme = \"warp\"\n", "unknown scheme"),
            ("[axes]\nrouting = \"zigzag\"\n", "unknown routing"),
            ("[axes]\nva = \"psychic\"\n", "unknown VA"),
            ("[axes]\nvcs = 0\n", "between 1 and 64"),
            ("[axes]\nvcs = 65\n", "between 1 and 64"),
            ("[axes]\nvcs = 256\n", "integers in [0, 255]"),
            ("[axes]\nvcs = \"four\"\n", "integers"),
            ("[axes]\nbuffer = 0\n", "buffer depth must be at least 1"),
            (
                "[axes]\nvcs = 3\nrouting = \"o1turn\"\n",
                "multiple of the 2 deadlock-avoidance VC classes",
            ),
            ("[axes]\ntopology = \"torus9\"\n", "unknown topology"),
            ("[phases]\nmidgame = 5\n", "unknown phases"),
            (
                "[axes]\ntopology = [\"mesh2x2\", \"MESH2x2\"]\n",
                "duplicate-free",
            ),
        ];
        for (text, needle) in cases {
            let err = CampaignSpec::parse_toml_str(text).expect_err(text);
            assert!(err.0.contains(needle), "{text:?} -> {err}");
        }
    }

    #[test]
    fn scheme_choice_roundtrips_and_labels() {
        // SCHEME_NAMES is the one shared vocabulary table: every entry must
        // round-trip through parse/canonical, and the variants must cover it
        // exactly (a new scheme that misses the table fails here).
        for &name in SCHEME_NAMES {
            let choice = SchemeChoice::parse(name).unwrap();
            assert_eq!(choice.canonical(), name);
            assert_eq!(SchemeChoice::parse(choice.canonical()).unwrap(), choice);
        }
        assert!(SCHEME_NAMES.contains(&SchemeChoice::Evc.canonical()));
        assert!(SCHEME_NAMES.contains(&SchemeChoice::Hybrid.canonical()));
        assert_eq!(
            SchemeChoice::parse("full").unwrap().canonical(),
            "pseudo+ps+bb"
        );
        assert_eq!(
            SchemeChoice::Pc(Scheme::pseudo_ps_bb()).label(),
            "Pseudo+PS+BB"
        );
        assert_eq!(SchemeChoice::Evc.label(), "EVC");
        assert_eq!(SchemeChoice::Hybrid.label(), "Hybrid");
    }

    #[test]
    fn spec_hash_tracks_the_point_set() {
        let a = CampaignSpec::parse_toml_str(SPEC).unwrap();
        let b = CampaignSpec::parse_toml_str(&SPEC.replace("0.05", "0.07")).unwrap();
        let renamed = CampaignSpec::parse_toml_str(&SPEC.replace("\"t\"", "\"u\"")).unwrap();
        assert_ne!(a.spec_hash(), b.spec_hash());
        assert_eq!(
            a.spec_hash(),
            renamed.spec_hash(),
            "the name is not part of the point-set identity"
        );
    }
}
