//! Entangled-group-level execution plans for collective calls.
//!
//! The streaming engine does not operate on individual communication
//! groups: bursts always move whole entangled groups, and groups smaller
//! than 8 lanes are *packed* — sibling instances occupy the remaining lanes
//! and are served by the very same bursts (Fig. 9b of the paper). This
//! module decomposes a collective call into [`EgCluster`]s, the units the
//! engine streams over.

use pim_sim::domain::{rotation_within, LanePerm, IDENTITY_PERM};
use pim_sim::geometry::{DimmGeometry, EgId, LANES};

use crate::error::Result;
use crate::hypercube::{CommGroup, DimMask, HypercubeManager};

/// One communication group's position inside an [`EgCluster`].
///
/// Group rank `r` decomposes as `r = lane_rank + L * eg_rank`, where
/// `lane_rank` indexes [`GroupPlan::lanes`] (the physical lanes the group
/// occupies within each of the cluster's entangled groups) and `eg_rank`
/// indexes [`EgCluster::egs`]. This regular decomposition is guaranteed by
/// the power-of-two hypercube shape and is asserted during planning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupPlan {
    /// Index of the group in [`HypercubeManager::groups`] order.
    pub group_id: usize,
    /// Physical lane of each lane rank (length `L`, possibly strided).
    pub lanes: Vec<usize>,
}

/// A set of entangled groups processed together, with all the communication
/// groups packed into their lanes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EgCluster {
    /// Entangled groups, indexed by eg-rank `m`.
    pub egs: Vec<EgId>,
    /// Memory channel of each entangled group (for bus-parallelism
    /// accounting).
    pub channels: Vec<usize>,
    /// The packed communication groups (disjoint lanes, together covering
    /// all 8 lanes).
    pub groups: Vec<GroupPlan>,
    /// Lane ranks per group (`L`); identical for every packed group.
    pub lane_count: usize,
}

impl EgCluster {
    /// Number of entangled groups (`M`).
    pub fn eg_count(&self) -> usize {
        self.egs.len()
    }

    /// Communication-group size `N = L * M`.
    pub fn group_size(&self) -> usize {
        self.lane_count * self.egs.len()
    }

    /// The combined 8-lane permutation rotating every packed group's lanes
    /// by `k` positions (lane rank `i` moves to lane rank `(i + k) % L`).
    ///
    /// Because all packed instances rotate in lock-step, one register
    /// shuffle serves them all — the heart of multi-instance packing.
    pub fn rotation(&self, k: usize) -> LanePerm {
        let mut perm = IDENTITY_PERM;
        for g in &self.groups {
            let rot = rotation_within(&g.lanes, k % self.lane_count);
            // Merge: `rot` only deviates from identity on g's lanes, which
            // are disjoint from other groups' lanes.
            for (dst, &src) in rot.iter().enumerate() {
                if src != dst {
                    perm[dst] = src;
                }
            }
        }
        perm
    }
}

/// Decomposes the communication groups of `mask` into clusters.
///
/// # Errors
///
/// Propagates mask/shape validation errors.
///
/// # Panics
///
/// Panics if a group's members do not decompose regularly into
/// (lane rank, eg rank) — impossible for shapes accepted by
/// [`crate::hypercube::HypercubeShape::new`] covering the whole system.
pub fn build_clusters(manager: &HypercubeManager, mask: &DimMask) -> Result<Vec<EgCluster>> {
    let groups = manager.groups(mask)?;
    build_clusters_from_groups(manager.geometry(), &groups)
}

/// Clusters pre-enumerated groups (exposed for tests and for topologies
/// that construct groups directly).
pub fn build_clusters_from_groups(
    geometry: &DimmGeometry,
    groups: &[CommGroup],
) -> Result<Vec<EgCluster>> {
    // Preserve first-appearance order of EG sets so cluster order is
    // deterministic.
    let mut clusters: Vec<EgCluster> = Vec::new();

    for group in groups {
        let n = group.members.len();
        // Entangled groups in order of first appearance.
        let mut egs: Vec<EgId> = Vec::new();
        for &pe in &group.members {
            let eg = geometry.group_of(pe);
            if egs.last() != Some(&eg) && !egs.contains(&eg) {
                egs.push(eg);
            }
        }
        let m = egs.len();
        assert_eq!(
            n % m,
            0,
            "group {} does not tile its entangled groups",
            group.id
        );
        let lane_count = n / m;
        assert!(
            lane_count <= LANES,
            "group {} occupies more than 8 lanes per entangled group",
            group.id
        );

        // Lane pattern from the first EG's members; assert regularity.
        let lanes: Vec<usize> = group.members[..lane_count]
            .iter()
            .map(|&pe| geometry.lane_of(pe))
            .collect();
        for (rank, &pe) in group.members.iter().enumerate() {
            let (i, mm) = (rank % lane_count, rank / lane_count);
            assert_eq!(
                geometry.lane_of(pe),
                lanes[i],
                "irregular lane pattern in group {}",
                group.id
            );
            assert_eq!(
                geometry.group_of(pe),
                egs[mm],
                "irregular entangled-group pattern in group {}",
                group.id
            );
        }

        let plan = GroupPlan {
            group_id: group.id,
            lanes,
        };

        if let Some(cluster) = clusters.iter_mut().find(|c| c.egs == egs) {
            assert_eq!(
                cluster.lane_count, lane_count,
                "packed groups disagree on lane count"
            );
            cluster.groups.push(plan);
        } else {
            let channels = egs.iter().map(|&e| geometry.channel_of_group(e)).collect();
            clusters.push(EgCluster {
                egs,
                channels,
                groups: vec![plan],
                lane_count,
            });
        }
    }

    // Every lane of every cluster must be owned by exactly one packed group
    // (the hypercube covers all PEs).
    for c in &clusters {
        let mut owned = [false; LANES];
        for g in &c.groups {
            for &l in &g.lanes {
                assert!(!owned[l], "lane {l} claimed twice in cluster");
                owned[l] = true;
            }
        }
        assert!(owned.iter().all(|&o| o), "cluster leaves lanes unowned");
    }

    Ok(clusters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypercube::HypercubeShape;
    use pim_sim::domain::is_permutation;

    fn manager(dims: &[usize], geom: DimmGeometry) -> HypercubeManager {
        HypercubeManager::new(HypercubeShape::new(dims.to_vec()).unwrap(), geom).unwrap()
    }

    #[test]
    fn full_lane_groups_one_per_cluster() {
        // [8, 4] on 32 PEs: x groups are whole EGs.
        let m = manager(&[8, 4], DimmGeometry::new(2, 1, 2));
        let clusters = build_clusters(&m, &"10".parse().unwrap()).unwrap();
        assert_eq!(clusters.len(), 4);
        for c in &clusters {
            assert_eq!(c.lane_count, 8);
            assert_eq!(c.eg_count(), 1);
            assert_eq!(c.groups.len(), 1);
            assert_eq!(c.group_size(), 8);
        }
    }

    #[test]
    fn sub_lane_groups_pack_into_clusters() {
        // [4, 2, 4]: x groups (size 4) pack two per entangled group.
        let m = manager(&[4, 2, 4], DimmGeometry::new(2, 1, 2));
        let clusters = build_clusters(&m, &"100".parse().unwrap()).unwrap();
        assert_eq!(clusters.len(), 4, "one cluster per EG");
        for c in &clusters {
            assert_eq!(c.lane_count, 4);
            assert_eq!(c.groups.len(), 2, "two packed instances");
            let mut lanes: Vec<usize> = c.groups.iter().flat_map(|g| g.lanes.clone()).collect();
            lanes.sort_unstable();
            assert_eq!(lanes, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        }
    }

    #[test]
    fn packed_groups_own_every_lane_of_their_clusters_egs() {
        // Every PE is in exactly one group, and a group touching an EG is
        // in that EG's cluster — so between them a cluster's groups own
        // each of the 8 lanes exactly once, and the clusters partition the
        // EGs. The rooted-send row layout relies on it: no lane row of a
        // block is left for anyone else to fill.
        for (dims, geom) in [
            (vec![4, 2, 4], DimmGeometry::new(2, 1, 2)),
            (vec![16, 4], DimmGeometry::single_rank()),
            (vec![2, 2, 2, 8], DimmGeometry::single_rank()),
            (vec![8, 8, 16], DimmGeometry::upmem_1024()),
            (vec![32, 32], DimmGeometry::upmem_1024()),
        ] {
            let m = manager(&dims, geom);
            for bits in 1..1usize << dims.len() {
                let mask: String = (0..dims.len())
                    .map(|d| if bits >> d & 1 == 1 { '1' } else { '0' })
                    .collect();
                let clusters = build_clusters(&m, &mask.parse().unwrap()).unwrap();
                let mut egs: Vec<EgId> = Vec::new();
                for c in &clusters {
                    let mut lanes: Vec<usize> =
                        c.groups.iter().flat_map(|g| g.lanes.clone()).collect();
                    lanes.sort_unstable();
                    assert_eq!(lanes, (0..LANES).collect::<Vec<_>>(), "{dims:?} {mask}");
                    egs.extend(&c.egs);
                }
                egs.sort_unstable();
                assert_eq!(egs, geom.groups().collect::<Vec<_>>(), "{dims:?} {mask}");
            }
        }
    }

    #[test]
    fn strided_lane_groups() {
        // [4, 2, 4] mask "010": y groups have stride-4 lanes {l, l+4}.
        let m = manager(&[4, 2, 4], DimmGeometry::new(2, 1, 2));
        let clusters = build_clusters(&m, &"010".parse().unwrap()).unwrap();
        assert_eq!(clusters.len(), 4);
        for c in &clusters {
            assert_eq!(c.lane_count, 2);
            assert_eq!(c.groups.len(), 4);
            for g in &c.groups {
                assert_eq!(g.lanes[1], g.lanes[0] + 4, "y stride");
            }
        }
    }

    #[test]
    fn multi_eg_groups() {
        // [4, 2, 4] mask "101": xz groups of 16 span 2 EGs with 8 lanes.
        let m = manager(&[4, 2, 4], DimmGeometry::new(2, 1, 2));
        let clusters = build_clusters(&m, &"101".parse().unwrap()).unwrap();
        for c in &clusters {
            assert_eq!(c.group_size(), 16);
            assert!(c.lane_count == 4, "x covers 4 lanes, z spans EGs");
            assert_eq!(c.eg_count(), 4);
        }
    }

    #[test]
    fn straddling_dimension() {
        // [16, 4] on 64 PEs: x=16 straddles the lane boundary (8 lanes x 2 EGs).
        let m = manager(&[16, 4], DimmGeometry::single_rank());
        let clusters = build_clusters(&m, &"10".parse().unwrap()).unwrap();
        assert_eq!(clusters.len(), 4);
        for c in &clusters {
            assert_eq!(c.lane_count, 8);
            assert_eq!(c.eg_count(), 2);
            assert_eq!(c.group_size(), 16);
        }
    }

    #[test]
    fn rotations_are_permutations_and_identity_at_zero() {
        let m = manager(&[4, 2, 4], DimmGeometry::new(2, 1, 2));
        for mask in ["100", "010", "001", "110", "101", "111"] {
            let clusters = build_clusters(&m, &mask.parse().unwrap()).unwrap();
            for c in &clusters {
                assert_eq!(c.rotation(0), IDENTITY_PERM, "{mask}");
                for k in 0..c.lane_count {
                    assert!(is_permutation(&c.rotation(k)), "{mask} k={k}");
                }
            }
        }
    }

    #[test]
    fn rotation_moves_each_groups_lanes_internally() {
        let m = manager(&[4, 2, 4], DimmGeometry::new(2, 1, 2));
        let clusters = build_clusters(&m, &"100".parse().unwrap()).unwrap();
        let c = &clusters[0];
        let perm = c.rotation(1);
        for g in &c.groups {
            for (i, &lane) in g.lanes.iter().enumerate() {
                let dst = g.lanes[(i + 1) % c.lane_count];
                assert_eq!(perm[dst], lane, "lane {lane} rotates within its group");
            }
        }
    }

    #[test]
    fn paper_figure6_mapping() {
        // Fig. 6: shape [x=8(2^3), y=2, z=4] on ch=2, r=2, b=2, c=2... we
        // use the text's [z=2,y=1,x=3] exponents: 8x2x4 = 64 PEs on a
        // 2-channel, 2-rank, 2-bank geometry.
        let m = manager(&[8, 2, 4], DimmGeometry::new(2, 2, 2));
        // x occupies whole entangled groups.
        let cx = build_clusters(&m, &"100".parse().unwrap()).unwrap();
        assert!(cx.iter().all(|c| c.lane_count == 8 && c.eg_count() == 1));
        // z spans channels (last dimension -> channel level).
        let cz = build_clusters(&m, &"001".parse().unwrap()).unwrap();
        for c in &cz {
            let unique: std::collections::BTreeSet<usize> = c.channels.iter().copied().collect();
            assert_eq!(unique.len(), 2, "z slices span both channels");
        }
    }
}
