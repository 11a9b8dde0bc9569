//! Multi-source detection fusion.
//!
//! The collaborative safety function of the paper's Figure 2 fuses the
//! forwarder's own detections with the drone's: per worker, keep the
//! highest-confidence report (the sources are independent views of the
//! same ground truth, so the best view wins).

use crate::sensors::Detection;

/// Fuses detection lists from multiple sources into caller-owned `out`
/// (cleared first). With warm capacity no heap allocation occurs.
///
/// Per worker, the first report seen is kept and replaced only by one
/// of strictly greater confidence, so a confidence tie goes to the
/// earlier source. The output holds one entry per reporting worker,
/// sorted by worker id for determinism. A handful of detections per
/// tick makes a linear merge cheaper than hashing.
pub fn fuse_detections_into(sources: &[&[Detection]], out: &mut Vec<Detection>) {
    out.clear();
    for source in sources {
        for d in *source {
            match out.iter_mut().find(|cur| cur.human_id == d.human_id) {
                Some(cur) => {
                    if d.confidence > cur.confidence {
                        *cur = *d;
                    }
                }
                None => out.push(*d),
            }
        }
    }
    out.sort_unstable_by_key(|d| d.human_id);
}

#[cfg(test)]
mod tests {
    use super::*;
    use silvasec_sim::geom::Vec2;
    use silvasec_sim::humans::HumanId;

    fn det(id: u32, confidence: f64) -> Detection {
        Detection {
            human_id: HumanId(id),
            position: Vec2::new(id as f64, 0.0),
            confidence,
            distance_m: 1.0,
        }
    }

    fn fuse(sources: &[Vec<Detection>]) -> Vec<Detection> {
        let slices: Vec<&[Detection]> = sources.iter().map(Vec::as_slice).collect();
        let mut out = Vec::new();
        fuse_detections_into(&slices, &mut out);
        out
    }

    #[test]
    fn empty_sources_fuse_to_empty() {
        assert!(fuse(&[]).is_empty());
        assert!(fuse(&[vec![], vec![]]).is_empty());
    }

    #[test]
    fn union_of_distinct_workers() {
        let fused = fuse(&[vec![det(1, 0.5)], vec![det(2, 0.6)]]);
        assert_eq!(fused.len(), 2);
        assert_eq!(fused[0].human_id, HumanId(1));
        assert_eq!(fused[1].human_id, HumanId(2));
    }

    #[test]
    fn highest_confidence_wins() {
        let fused = fuse(&[vec![det(1, 0.5)], vec![det(1, 0.9)], vec![det(1, 0.2)]]);
        assert_eq!(fused.len(), 1);
        assert!((fused[0].confidence - 0.9).abs() < 1e-12);
    }

    #[test]
    fn deterministic_order() {
        let a = fuse(&[vec![det(3, 0.1), det(1, 0.2)], vec![det(2, 0.3)]]);
        let ids: Vec<u32> = a.iter().map(|d| d.human_id.0).collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn into_variant_matches_oracle() {
        let at = |d: Detection, distance_m: f64| Detection { distance_m, ..d };
        let cases: Vec<(Vec<Vec<Detection>>, Vec<Detection>)> = vec![
            (vec![], vec![]),
            (vec![vec![], vec![]], vec![]),
            (
                vec![vec![det(1, 0.5)], vec![det(2, 0.6)]],
                vec![det(1, 0.5), det(2, 0.6)],
            ),
            (
                vec![vec![det(1, 0.5)], vec![det(1, 0.9)], vec![det(1, 0.2)]],
                vec![det(1, 0.9)],
            ),
            // Tie on confidence: the first-seen report wins (the reports
            // differ in distance, so a wrong winner shows).
            (
                vec![vec![at(det(4, 0.5), 1.0)], vec![at(det(4, 0.5), 9.0)]],
                vec![at(det(4, 0.5), 1.0)],
            ),
            (
                vec![
                    vec![det(3, 0.1), det(1, 0.2), det(3, 0.3)],
                    vec![det(2, 0.3), det(1, 0.1)],
                ],
                vec![det(1, 0.2), det(2, 0.3), det(3, 0.3)],
            ),
        ];
        let mut out = vec![det(9, 1.0)];
        for (sources, expected) in cases {
            let slices: Vec<&[Detection]> = sources.iter().map(Vec::as_slice).collect();
            fuse_detections_into(&slices, &mut out);
            assert_eq!(out, expected, "sources {sources:?}");
        }
    }
}
