//! The paper's LOC formulas (2) and (3), ready to instantiate.
//!
//! Both formulas quantify over `forward` events — one per transmitted
//! IP packet — and compare instance `i` with instance `i + window` to form
//! sliding-window averages.

use loc::{AnnotKey, BinOp, DistRel, Expr, Formula};

/// The packet window the paper uses everywhere: statistics are computed
/// "for each 100 packets forwarded".
pub const PACKET_WINDOW: i64 = 100;

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
    per_time_distribution(AnnotKey::Energy, window, 0.5, 2.25, 0.01)
}

/// Paper formula (3): the distribution of average forwarding throughput
/// (Mbps) per `window` forwarded packets, analysis period `(100, 3300, 10)`.
///
/// `total_bit` is in bits and time in µs, so the ratio is directly in
/// Mbps.
///
/// ```
/// let f = abdex::formulas::throughput_distribution(100);
/// assert!(f.to_string().contains("total_bit(forward[i+100])"));
/// assert!(f.to_string().contains("dist== (100, 3300, 10)"));
/// ```
#[must_use]
pub fn throughput_distribution(window: i64) -> Formula {
    per_time_distribution(AnnotKey::TotalBit, window, 100.0, 3300.0, 10.0)
}

/// The distribution of how much `key` grows per µs over each `window`
/// forwarded packets: `(key(forward[i+window]) - key(forward[i])) /
/// (time(forward[i+window]) - time(forward[i])) dist== (min, max, step)`.
fn per_time_distribution(key: AnnotKey, window: i64, min: f64, max: f64, step: f64) -> Formula {
    let delta = |key: AnnotKey| Expr::Binary {
        op: BinOp::Sub,
        lhs: Box::new(Expr::annot(key.clone(), "forward", window)),
        rhs: Box::new(Expr::annot(key, "forward", 0)),
    };
    Formula::Dist {
        expr: Expr::Binary {
            op: BinOp::Div,
            lhs: Box::new(delta(key)),
            rhs: Box::new(delta(AnnotKey::Time)),
        },
        rel: DistRel::Eq,
        min,
        max,
        step,
    }
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
    }

    #[test]
    fn analyzers_generate_from_all_distribution_formulas() {
        for f in [power_distribution(100), throughput_distribution(100)] {
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
