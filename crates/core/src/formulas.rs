//! The paper's LOC formulas, ready to instantiate.
//!
//! All three formulas quantify over `forward` events — one per transmitted
//! IP packet — and compare instance `i` with instance `i + window` to form
//! sliding-window averages.

use loc::builder::annot;
use loc::{AnnotKey, Formula};

/// The packet window the paper uses everywhere: statistics are computed
/// "for each 100 packets forwarded".
pub const PACKET_WINDOW: i64 = 100;

/// Paper formula (1): distribution of the time to forward `window`
/// packets, binned over `(40, 80, 5)` µs.
///
/// ```
/// let f = abdex::formulas::latency_distribution(100);
/// assert_eq!(f.to_string(),
///     "(time(forward[i+100]) - time(forward[i])) dist== (40, 80, 5)");
/// ```
#[must_use]
pub fn latency_distribution(window: i64) -> Formula {
    let dt = annot(AnnotKey::Time, "forward", window) - annot(AnnotKey::Time, "forward", 0);
    dt.dist_eq(40.0, 80.0, 5.0)
}

/// Paper formula (2): the distribution of average power (W) per `window`
/// forwarded packets, analysis period `(0.5, 2.25, 0.01)`.
///
/// Energy is in µJ and time in µs, so the ratio is directly in watts.
///
/// ```
/// let f = abdex::formulas::power_distribution(100);
/// assert!(f.to_string().contains("energy(forward[i+100])"));
/// assert!(f.to_string().contains("dist== (0.5, 2.25, 0.01)"));
/// ```
#[must_use]
pub fn power_distribution(window: i64) -> Formula {
    let de = annot(AnnotKey::Energy, "forward", window) - annot(AnnotKey::Energy, "forward", 0);
    let dt = annot(AnnotKey::Time, "forward", window) - annot(AnnotKey::Time, "forward", 0);
    (de / dt).dist_eq(0.5, 2.25, 0.01)
}

/// Paper formula (3): the distribution of average forwarding throughput
/// (Mbps) per `window` forwarded packets, analysis period `(100, 3300, 10)`.
///
/// `total_bit` is in bits and time in µs; dividing by 10⁶… the paper
/// divides the bit count by 10⁶ and the µs difference yields Mbps×10⁻⁶…
/// — concretely, `bits / us == Mbps`, matching the paper's `10⁶` scaling
/// of seconds-based time.
///
/// ```
/// let f = abdex::formulas::throughput_distribution(100);
/// assert!(f.to_string().contains("total_bit(forward[i+100])"));
/// assert!(f.to_string().contains("dist== (100, 3300, 10)"));
/// ```
#[must_use]
pub fn throughput_distribution(window: i64) -> Formula {
    let db = annot(AnnotKey::TotalBit, "forward", window) - annot(AnnotKey::TotalBit, "forward", 0);
    let dt = annot(AnnotKey::Time, "forward", window) - annot(AnnotKey::Time, "forward", 0);
    (db / dt).dist_eq(100.0, 3300.0, 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use loc::{parse, Analyzer};

    #[test]
    fn formulas_match_paper_text_syntax() {
        let f2 = parse(
            "(energy(forward[i+100]) - energy(forward[i])) / \
             (time(forward[i+100]) - time(forward[i])) dist== (0.5, 2.25, 0.01)",
        )
        .unwrap();
        assert_eq!(power_distribution(PACKET_WINDOW), f2);

        let f3 = parse(
            "(total_bit(forward[i+100]) - total_bit(forward[i])) / \
             (time(forward[i+100]) - time(forward[i])) dist== (100, 3300, 10)",
        )
        .unwrap();
        assert_eq!(throughput_distribution(PACKET_WINDOW), f3);

        let f1 = parse("time(forward[i+100]) - time(forward[i]) dist== (40, 80, 5)").unwrap();
        assert_eq!(latency_distribution(PACKET_WINDOW), f1);
    }

    #[test]
    fn analyzers_generate_from_all_distribution_formulas() {
        for f in [
            latency_distribution(100),
            power_distribution(100),
            throughput_distribution(100),
        ] {
            assert!(Analyzer::from_formula(&f).is_ok(), "{f}");
        }
    }

    #[test]
    fn custom_windows_change_offsets() {
        let f = power_distribution(10);
        let mut max_off = 0;
        f.visit_annots(&mut |_, _, off| max_off = max_off.max(off));
        assert_eq!(max_off, 10);
    }
}
