//! Android-realistic workloads: pvmfw-style protected boot, virtio-style
//! share/unshare ping-pong, and dense multi-VM churn.
//!
//! The handwritten suite ([`crate::scenarios`]) exercises the API the way
//! the paper's §5 table does — one call shape per scenario. Production
//! pKVM traffic on an Android device looks different: every protected VM
//! boots through a firmware (pvmfw) donation before its first vCPU
//! exists, virtio queues bounce the same pages between guest and host for
//! the life of the VM, and the system continuously creates and destroys
//! VMs, recycling handles and memcache pages. This module drives those
//! three families through the same [`Proxy`] stack, paired with the
//! oracle's Android-surface spec checks (firmware protection and the
//! transfer protocol), which always run.
//!
//! Everything here is deterministic: scenarios take a booted proxy and
//! panic on failure, like [`crate::scenarios::Scenario`] bodies, and the
//! churn driver is a plain loop — so campaigns, the differential matrix
//! and the mode-equivalence suite can all reuse them.

use pkvm_aarch64::addr::PAGE_SIZE;
use pkvm_aarch64::walk::Access;
use pkvm_hyp::error::Errno;
use pkvm_hyp::handlers::MAX_FIRMWARE_PAGES;
use pkvm_hyp::vm::GuestOp;

use crate::proxy::Proxy;
use crate::random::{DEFAULT_OP_WEIGHTS, OP_NAMES};
use crate::scenarios::{Kind, Scenario};

/// The random-tester call mix for Android-shaped campaigns: heavy
/// share/unshare ping-pong, constant VM creation and teardown (handle
/// churn), and a steady trickle of firmware loads and oversized top-ups
/// so the protected-boot and memcache spec points stay hot.
pub fn android_weights() -> [f64; OP_NAMES.len()] {
    let mut w = DEFAULT_OP_WEIGHTS;
    let mut set = |name: &str, v: f64| {
        let i = OP_NAMES.iter().position(|&n| n == name).expect("known op");
        w[i] = v;
    };
    set("share", 30.0);
    set("unshare", 25.0);
    set("init_vm", 12.0);
    set("teardown", 10.0);
    set("reclaim", 10.0);
    set("firmware", 8.0);
    set("topup_oversized", 2.0);
    w
}

/// One complete VM lifecycle: create, (optionally) load firmware, boot a
/// vCPU, map and touch a guest page, tear down, reclaim. The churn
/// property test and `examples/android.rs` loop this hundreds of times;
/// any step that fails for a resource reason returns the error instead of
/// panicking so callers can assert the degradation mode (`-ENOMEM`, never
/// a hypervisor panic).
pub fn churn_cycle(p: &Proxy, cpu: usize, firmware: bool) -> Result<(), Errno> {
    let handle = p.init_vm(cpu, 1, true)?;
    if firmware {
        let fw = p.try_alloc_pages(1).ok_or(Errno::ENOMEM)?;
        p.load_firmware(cpu, handle, fw, 0xa0, 1)?;
    }
    p.init_vcpu(cpu, handle, 0)?;
    p.vcpu_load(cpu, handle, 0)?;
    p.topup(cpu, 4)?;
    let pfn = p.map_guest(cpu, 0x10)?;
    p.push_guest_op(handle, 0, GuestOp::Write(0x10 * PAGE_SIZE, 0xd1ce))?;
    p.vcpu_run(cpu)?;
    p.vcpu_put(cpu)?;
    p.teardown(cpu, handle)?;
    p.reclaim(cpu, pfn)?;
    // Read-after-reclaim: the page must come back wiped.
    let read = p
        .host_access(cpu, pfn * PAGE_SIZE, Access::Read)
        .map_err(|_| Errno::EPERM)?;
    assert_eq!(read, 0, "reclaimed page {pfn:#x} not wiped");
    Ok(())
}

macro_rules! scenario {
    ($name:ident, $kind:ident, $conc:expr, $body:expr) => {
        Scenario {
            name: stringify!($name),
            kind: Kind::$kind,
            concurrent: $conc,
            run: $body,
        }
    };
}

/// The Android scenario family. Separate from [`crate::scenarios::all`]
/// (whose count mirrors the paper's suite); coverage accounting and the
/// mode-equivalence suite run both.
pub fn all() -> Vec<Scenario> {
    vec![
        scenario!(android_protected_boot, Ok, false, |p| {
            // The pvmfw flow: donate firmware before any vCPU exists,
            // then boot and run the guest out of it.
            let handle = p.init_vm(0, 1, true).expect("init_vm");
            let fw = p.alloc_pages(4);
            p.load_firmware(0, handle, fw, 0xa0, 4).expect("firmware");
            // The host lost the range the instant the donation committed.
            for i in 0..4 {
                assert!(
                    p.host_access(0, (fw + i) * PAGE_SIZE, Access::Read)
                        .is_err(),
                    "host still reads firmware page {i}"
                );
            }
            p.init_vcpu(0, handle, 0).expect("init_vcpu");
            p.vcpu_load(0, handle, 0).expect("vcpu_load");
            p.topup(0, 8).expect("topup");
            // The guest boots from its firmware mapping.
            p.push_guest_op(handle, 0, GuestOp::Read(0xa0 * PAGE_SIZE))
                .expect("push");
            p.vcpu_run(0).expect("vcpu_run");
            p.vcpu_put(0).expect("vcpu_put");
            p.teardown(0, handle).expect("teardown");
            // Retired, not reclaimed: the host never gets the pages back.
            assert_eq!(p.reclaim(0, fw), Err(Errno::EPERM));
            assert!(p.host_access(0, fw * PAGE_SIZE, Access::Read).is_err());
        }),
        scenario!(android_firmware_outlives_handle_reuse, Ok, false, |p| {
            let first = p.init_vm(0, 1, true).expect("init_vm");
            let fw = p.alloc_page();
            p.load_firmware(0, first, fw, 0xa0, 1).expect("firmware");
            p.teardown(0, first).expect("teardown");
            // The freed slot is recycled into a fresh incarnation; the
            // old VM's firmware stays retired through the reuse.
            let second = p.init_vm(0, 1, true).expect("init_vm again");
            assert_eq!(first, second, "slot not recycled");
            let fw2 = p.alloc_page();
            p.load_firmware(0, second, fw2, 0xa0, 1).expect("firmware");
            assert!(p.host_access(0, fw * PAGE_SIZE, Access::Read).is_err());
            p.teardown(0, second).expect("teardown");
            assert!(p.host_access(0, fw * PAGE_SIZE, Access::Read).is_err());
            assert!(p.host_access(0, fw2 * PAGE_SIZE, Access::Read).is_err());
        }),
        scenario!(android_firmware_requires_protected_vm, Err, false, |p| {
            let handle = p.init_vm(0, 1, false).expect("init_vm");
            let fw = p.alloc_page();
            assert_eq!(p.load_firmware(0, handle, fw, 0xa0, 1), Err(Errno::EPERM));
            // The refused donation cost the host nothing.
            assert!(p.host_access(0, fw * PAGE_SIZE, Access::Read).is_ok());
        }),
        scenario!(android_firmware_after_boot_is_busy, Err, false, |p| {
            let handle = p.init_vm(0, 1, true).expect("init_vm");
            p.init_vcpu(0, handle, 0).expect("init_vcpu");
            let fw = p.alloc_page();
            assert_eq!(p.load_firmware(0, handle, fw, 0xa0, 1), Err(Errno::EBUSY));
        }),
        scenario!(android_firmware_bad_sizes, Err, false, |p| {
            let handle = p.init_vm(0, 1, true).expect("init_vm");
            let fw = p.alloc_page();
            assert_eq!(p.load_firmware(0, handle, fw, 0xa0, 0), Err(Errno::EINVAL));
            assert_eq!(
                p.load_firmware(0, handle, fw, 0xa0, MAX_FIRMWARE_PAGES + 1),
                Err(Errno::EINVAL)
            );
        }),
        scenario!(android_share_unshare_pingpong, Ok, false, |p| {
            // Virtio-queue shape: the same pages cross the host/hyp
            // boundary over and over.
            let base = p.alloc_pages(8);
            for _round in 0..6 {
                for i in 0..8 {
                    p.share(0, base + i).expect("share");
                }
                for i in 0..8 {
                    p.unshare(0, base + i).expect("unshare");
                }
            }
            // Unshare restored full host ownership every round.
            for i in 0..8 {
                assert!(p
                    .host_access(0, (base + i) * PAGE_SIZE, Access::Write)
                    .is_ok());
            }
        }),
        scenario!(android_guest_share_pingpong, Ok, false, |p| {
            // The guest side of the ping-pong: a protected guest bounces
            // one of its own pages to the host and back, with the host
            // touching it only while it is shared.
            let handle = p.init_vm(0, 1, true).expect("init_vm");
            p.init_vcpu(0, handle, 0).expect("init_vcpu");
            p.vcpu_load(0, handle, 0).expect("vcpu_load");
            p.topup(0, 8).expect("topup");
            let pfn = p.map_guest(0, 0x10).expect("map_guest");
            for round in 0..5u64 {
                p.push_guest_op(handle, 0, GuestOp::Write(0x10 * PAGE_SIZE, round + 1))
                    .expect("push");
                p.vcpu_run(0).expect("guest write");
                p.push_guest_op(handle, 0, GuestOp::HvcShareHost(0x10 * PAGE_SIZE))
                    .expect("push");
                p.vcpu_run(0).expect("guest share");
                // Mid-transfer the page belongs to exactly one side; the
                // share has committed, so the host may read it now.
                assert_eq!(
                    p.host_access(0, pfn * PAGE_SIZE, Access::Read).ok(),
                    Some(round + 1)
                );
                p.push_guest_op(handle, 0, GuestOp::HvcUnshareHost(0x10 * PAGE_SIZE))
                    .expect("push");
                p.vcpu_run(0).expect("guest unshare");
                // Unshare restored the pre-share owner: guest-exclusive.
                assert!(p.host_access(0, pfn * PAGE_SIZE, Access::Read).is_err());
            }
            p.vcpu_put(0).expect("vcpu_put");
            p.teardown(0, handle).expect("teardown");
            p.reclaim(0, pfn).expect("reclaim");
        }),
        scenario!(android_reclaim_reads_back_wiped, Ok, false, |p| {
            let handle = p.init_vm(0, 1, true).expect("init_vm");
            p.init_vcpu(0, handle, 0).expect("init_vcpu");
            p.vcpu_load(0, handle, 0).expect("vcpu_load");
            p.topup(0, 8).expect("topup");
            let pfn = p.map_guest(0, 0x10).expect("map_guest");
            p.push_guest_op(handle, 0, GuestOp::Write(0x10 * PAGE_SIZE, 0x5ec2e7))
                .expect("push");
            p.vcpu_run(0).expect("guest write");
            p.vcpu_put(0).expect("vcpu_put");
            p.teardown(0, handle).expect("teardown");
            p.reclaim(0, pfn).expect("reclaim");
            // The guest's secret must not survive the reclaim.
            assert_eq!(
                p.host_access(0, pfn * PAGE_SIZE, Access::Read).ok(),
                Some(0)
            );
        }),
        scenario!(android_pool_exhaustion_degrades, Err, false, |p| {
            // Firmware mappings build their guest tables from the hyp
            // pool. Spreading loads across distant gfns forces a fresh
            // table chain per load until the pool runs dry — which must
            // surface as `-ENOMEM`, never a hypervisor panic.
            let handle = p.init_vm(0, 1, true).expect("init_vm");
            let mut exhausted = false;
            for i in 0..2048u64 {
                let Some(fw) = p.try_alloc_pages(1) else {
                    break;
                };
                // 512 GiB stride: distinct level-1/2/3 chains every time.
                match p.load_firmware(0, handle, fw, (i + 1) * (1 << 25), 1) {
                    Ok(()) => {}
                    Err(Errno::ENOMEM) => {
                        exhausted = true;
                        break;
                    }
                    Err(e) => panic!("unexpected firmware error {e:?}"),
                }
            }
            assert!(exhausted, "pool never ran dry");
            assert!(p.machine.panicked().is_none(), "exhaustion panicked");
            // Teardown returns the table pages; the system keeps working.
            p.teardown(0, handle).expect("teardown");
            let pfn = p.alloc_page();
            p.share(0, pfn).expect("share after recovery");
            p.unshare(0, pfn).expect("unshare after recovery");
        }),
        scenario!(android_sequential_churn, Ok, false, |p| {
            for i in 0..40 {
                churn_cycle(p, 0, i % 3 == 0).expect("churn cycle");
            }
        }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use pkvm_ghost::ViolationKind;
    use pkvm_hyp::faults::{Fault, FaultSet};

    #[test]
    fn android_scenarios_stay_clean_under_the_oracle() {
        for s in all() {
            let p = Proxy::builder().boot();
            (s.run)(&p);
            assert!(
                p.all_clear(),
                "scenario {} found violations on a clean hypervisor:\n{:?}",
                s.name,
                p.violations()
            );
            assert!(p.machine.panicked().is_none(), "{} panicked", s.name);
        }
    }

    #[test]
    fn firmware_reclaim_fault_is_detected_by_the_new_spec_point() {
        let faults = FaultSet::none();
        faults.inject(Fault::SynFirmwareReclaim);
        let p = Proxy::builder().faults(faults).boot();
        let handle = p.init_vm(0, 1, true).expect("init_vm");
        let fw = p.alloc_page();
        p.load_firmware(0, handle, fw, 0xa0, 1).expect("firmware");
        p.teardown(0, handle).expect("teardown");
        // The buggy teardown queued the firmware page for reclaim; the
        // host taking it back is exactly what the protection check bans.
        let _ = p.reclaim(0, fw);
        let violations = p.violations();
        assert!(
            violations
                .iter()
                .any(|v| matches!(v.kind, ViolationKind::FirmwareProtection { .. })),
            "firmware reclaim went unnoticed: {violations:?}"
        );
    }

    #[test]
    fn transfer_protocol_check_flags_a_wrong_state_share() {
        let faults = FaultSet::none();
        faults.inject(Fault::SynShareWrongState);
        let p = Proxy::builder().boot();
        let clean = p;
        let pfn = clean.alloc_page();
        clean.share(0, pfn).expect("share");
        clean.unshare(0, pfn).expect("unshare");
        assert!(clean.all_clear(), "{:?}", clean.violations());
        // Same traffic against the wrong-state hypervisor diverges.
        let p = Proxy::builder().faults(faults).boot();
        let pfn = p.alloc_page();
        let _ = p.share(0, pfn);
        let _ = p.share(0, pfn);
        let _ = p.unshare(0, pfn);
        assert!(!p.all_clear(), "double share went unnoticed");
    }

    #[test]
    fn dense_churn_two_hundred_cycles_zero_false_positives() {
        let p = Proxy::builder().boot();
        let pool_baseline = p.machine.state.pool.lock().free_pages();
        let mut handles_reused = false;
        let mut last = None;
        for i in 0..210 {
            let before = p.machine.state.pool.lock().free_pages();
            churn_cycle(&p, 0, i % 2 == 0).expect("churn cycle");
            let after = p.machine.state.pool.lock().free_pages();
            // Bounded growth: a cycle may consume a few table pages for
            // the host's own stage 2, but must not leak the guest's.
            assert!(
                before.saturating_sub(after) <= 8,
                "cycle {i} leaked pool pages: {before} -> {after}"
            );
            // Handle recycling across incarnations.
            let h = p.init_vm(0, 1, true).expect("probe vm");
            if last == Some(h) {
                handles_reused = true;
            }
            last = Some(h);
            p.teardown(0, h).expect("probe teardown");
        }
        assert!(handles_reused, "no handle was ever recycled");
        let pool_end = p.machine.state.pool.lock().free_pages();
        assert!(
            pool_baseline.saturating_sub(pool_end) <= 64,
            "churn leaked pool pages: {pool_baseline} -> {pool_end}"
        );
        assert!(p.all_clear(), "{:?}", p.violations());
        assert!(p.machine.panicked().is_none());
    }

    #[test]
    fn churn_degrades_with_enomem_when_the_allocator_runs_dry() {
        let p = Proxy::builder().boot();
        // Burn the test allocator down, then keep churning: cycles must
        // fail with -ENOMEM (from the allocator or the hypercall), never
        // panic the hypervisor.
        while p.try_alloc_pages(256).is_some() {}
        let mut enomem = 0;
        for _ in 0..10 {
            match churn_cycle(&p, 0, true) {
                Ok(()) => {}
                Err(Errno::ENOMEM) => enomem += 1,
                Err(e) => panic!("unexpected churn error {e:?}"),
            }
        }
        assert!(enomem > 0, "allocator exhaustion never surfaced");
        assert!(p.machine.panicked().is_none());
        assert!(p.all_clear(), "{:?}", p.violations());
    }

    #[test]
    fn android_weights_are_a_valid_mix() {
        use crate::random::RandomCfg;
        let cfg = RandomCfg::builder().op_weights(android_weights()).build();
        assert_eq!(cfg.op_weights, android_weights(), "sanitiser rewrote mix");
        let total: f64 = cfg.op_weights.iter().sum();
        assert!(total > 0.0);
    }
}
