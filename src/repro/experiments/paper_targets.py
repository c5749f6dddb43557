"""The paper's reported numbers, as calibration/validation targets.

Collected from the text of §5.  These are the targets the
paper-fidelity scorecard (ROADMAP item 4) will check measured figures
against.  All throughputs GB/s, latencies us, ratios as
compressed/original fractions.
"""

from __future__ import annotations

# --- Figure 8: 4 KB microbenchmark ---------------------------------------
FIG8_THROUGHPUT_4K = {
    # device: (compress, decompress) GB/s
    "cpu-deflate": (4.9, 13.6),
    "cpu-snappy": (22.8, 20.3),
    "qat8970": (5.1, 7.6),
    "qat4xxx": (4.3, 7.0),
    "dpzip": (5.6, 9.4),
}
FIG8_LATENCY_4K_US = {
    # device: (compress, decompress) microseconds
    "cpu-deflate": (70.0, 26.0),
    "cpu-zstd": (20.4, 7.4),
    "cpu-snappy": (8.9, 3.8),
    "qat8970": (28.0, 14.0),
    "qat4xxx": (9.0, 6.0),
    "dpzip": (4.7, 2.6),
}

# --- Figure 9: 64 KB microbenchmark ---------------------------------------
FIG9_THROUGHPUT_64K = {
    "cpu-deflate": (6.4, 17.7),
    "qat8970": (9.3, 14.4),
    "qat4xxx": (9.5, 19.4),
    "dpzip": (13.8, 20.0),
}
#: Hardware gains from 4 KB -> 64 KB: comp +74-120%, decomp up to +177%.
FIG9_HW_COMP_GAIN_RANGE = (1.74, 2.46)
FIG9_SW_COMP_GAIN = 1.30

# --- Figure 7: Silesia compression ratios ---------------------------------
FIG7_RATIO_4K = {
    "deflate": 0.431,   # = QAT 8970
    "qat4xxx": 0.421,
    "dpzip": 0.450,
    # Lightweight algorithms land ~20 points higher (~0.60).
    "snappy": 0.60,
    "lz4": 0.60,
}
FIG7_QAT_RATIO_64K = (0.36, 0.38)

# --- Figure 11: DMA read latency -------------------------------------------
FIG11_QAT4XXX_READ_US = {1024: 0.35, 2048: 0.36, 4096: 0.41, 8192: 0.46,
                         16384: 0.42, 32768: 0.44, 65536: 0.45}
FIG11_QAT8970_READ_US = {1024: 9.53, 2048: 9.79, 4096: 10.24, 8192: 11.70,
                         16384: 15.84, 32768: 20.32, 65536: 31.44}
#: End-to-end 8970 latency is 3-5x the 4xxx's at 16-64 KB.
FIG11_E2E_RATIO_RANGE = (3.0, 5.0)

# --- Figure 12: compressibility sweep ---------------------------------------
FIG12_QAT4XXX_COMP_DROP = 0.67    # 67% compression-throughput loss
FIG12_QAT4XXX_DECOMP_DROP = 0.77
FIG12_DPZIP_MAX_DROP = 0.20       # "within 15%" plus measurement slack

# --- Figure 14: YCSB throughput ----------------------------------------------
FIG14_WORKLOAD_A_10P = {"off": 362_000, "cpu-deflate": 268_000,
                        "qat4xxx": 476_000}
FIG14_WORKLOAD_F_10P = {"off": 499_000, "cpu-deflate": 382_000}
FIG14_DPCSD_88P_F = 1_000_000
FIG14_QAT_PROCESS_CEILING = 64

# --- Figure 16/17: filesystems ------------------------------------------------
FIG16_DEFLATE_READ_PEAK_US = 572.0
FIG16_QAT4XXX_EXTRA_READ_US = 90.0
FIG16_DPCSD_EXTRA_READ_US = 5.0

# --- Figure 18/19: power ---------------------------------------------------------
FIG18_DPZIP_COMP_MB_J = 169.87
FIG18_DPZIP_DECOMP_MB_J = 165.65
FIG18_DPZIP_MULTI_COMP_MB_J = 288.72
FIG18_DPZIP_MULTI_DECOMP_MB_J = 395.88
FIG18_CPU_DEFLATE_MB_J = 41.81
FIG18_BTRFS_DPZIP_WRITE_MB_J = 75.63
FIG18_BTRFS_DPZIP_READ_MB_J = 69.10
FIG18_BTRFS_QAT_WRITE_MB_J = 11.75
FIG18_DPZIP_CPU_UTIL_MAX = 0.03
FIG18_OTHERS_CPU_UTIL_MIN = 0.14
FIG19_DPZIP_OPS_J = 5224.0
FIG19_QAT_OPS_J_MAX = 3800.0
POWER_DPZIP_ENGINE_W = 2.5
POWER_CPU_PACKAGE_W = 132.0

# --- Figure 20: multi-tenant -----------------------------------------------------
FIG20_CV = {"qat8970": 51.14, "qat4xxx": 54.39, "ssd": 0.48, "dpcsd": 0.48}
FIG20_CSD_VM_MBPS = 340.0

# --- Finding 14: scalability --------------------------------------------------------
SCALE_QAT4XXX = {1: 4.77, 2: 9.54}
SCALE_DPCSD = {1: 12.5, 8: 98.6}
SCALE_PCIE_SLOT_CEILING = 24

# --- §3 hardware constants ------------------------------------------------------------
DPZIP_AREA_MM2 = 6.0
DPZIP_AREA_FRACTION = 0.045
DPZIP_CANONIZER_MAX_CYCLES = 274
DPZIP_HUFFMAN_MAX_BITS = 11
DPZIP_BYTES_PER_CYCLE = 8
DPZIP_FREQUENCY_GHZ = 1.0
