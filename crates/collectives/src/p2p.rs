//! One-sided point-to-point copies (NVLink peer writes / `ncclSend`+`Recv`
//! fused into a put), used by the decomposition baselines.

use gpu_sim::collective::P2pOp;
use gpu_sim::device::DeviceId;
use gpu_sim::memory::BufferId;
use gpu_sim::stream::Op;
use interconnect::FabricSpec;

use crate::cost::BYTES_PER_ELEM;

/// The stream op of a one-sided copy of `count` elements from offset
/// `src.1` of buffer `src.0` on the launching (*source*) rank into
/// buffer `dst.1` at offset `dst.2` on device `dst.0`, priced on
/// `fabric` and holding `sm_footprint` SMs while in flight. The
/// destination does not participate (peer-to-peer put semantics);
/// callers needing arrival ordering should follow up with events.
///
/// # Panics
///
/// Panics if the fabric is not peer-to-peer capable.
pub fn p2p_copy(
    fabric: &FabricSpec,
    src: (BufferId, usize),
    dst: (DeviceId, BufferId, usize),
    count: usize,
    sm_footprint: u32,
) -> Op {
    assert!(
        fabric.peer_to_peer,
        "p2p_copy requires a peer-to-peer capable fabric"
    );
    let bytes = count as u64 * BYTES_PER_ELEM;
    Op::P2p(P2pOp {
        src_buf: src.0,
        src_off: src.1,
        dst_dev: dst.0,
        dst_buf: dst.1,
        dst_off: dst.2,
        count,
        sm_footprint,
        bytes,
        duration: fabric.p2p.transfer_time(bytes),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::arch::GpuArch;
    use gpu_sim::stream::enqueue;
    use gpu_sim::{Cluster, ClusterSim};
    use sim::Sim;

    #[test]
    fn copies_data_between_devices() {
        let mut world = Cluster::new(2, GpuArch::a800(), true, 1);
        let mut sim: ClusterSim = Sim::new();
        let src = world.devices[0].mem.alloc_init(&[1.0, 2.0, 3.0, 4.0]);
        let dst = world.devices[1].mem.alloc(4);
        let s = world.devices[0].create_stream();
        enqueue(
            &mut world,
            &mut sim,
            0,
            s,
            p2p_copy(&FabricSpec::a800_nvlink(), (src, 1), (1, dst, 2), 2, 8),
        );
        let end = sim.run(&mut world).unwrap();
        assert_eq!(world.devices[1].mem.snapshot(dst), vec![0.0, 0.0, 2.0, 3.0]);
        let expected = FabricSpec::a800_nvlink()
            .p2p
            .transfer_time(2 * BYTES_PER_ELEM);
        assert_eq!(end.as_nanos(), expected.as_nanos());
        assert_eq!(world.devices[0].comm_sms(), 0);
    }

    #[test]
    #[should_panic(expected = "peer-to-peer")]
    fn pcie_fabric_rejects_p2p() {
        let mut world = Cluster::new(2, GpuArch::rtx4090(), false, 1);
        let mut sim: ClusterSim = Sim::new();
        let s = world.devices[0].create_stream();
        let b = world.devices[0].mem.alloc(4);
        enqueue(
            &mut world,
            &mut sim,
            0,
            s,
            p2p_copy(&FabricSpec::rtx4090_pcie(), (b, 0), (1, b, 0), 4, 8),
        );
        sim.run(&mut world).unwrap();
    }
}
