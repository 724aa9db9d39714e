"""Stage orchestration for the CLI: seeded inputs and parameters, stage
selection, tensor output, and a structured-text summary; and `full`, the
pipeline as one op, with its VJP `full_vjp`.  The stages, in `config.STAGES`
order, are cuts of full's one chain, all but ftssa:
  ftssa  attention stages applied to the primary input alone
  gmm    column/row mixing of the aggregated inputs
  dmm    detail capture over the gmm output
  gdim   the composed integration op (the dmm value)
  dpam   the pixel attention map
  full   the final weighted fusion

Output tensors are byte-deterministic for a fixed config; wall-clock timing
lives in a clearly separated summary section outside that contract.
"""

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .dpam import _dpam_bwd, _fuse_bwd, dpam, mgdfis_fuse
from .errors import ConfigError
from .ftssa import ftssa
from .gdim import _dmm_bwd, _gmm_bwd, _reconcile_bwd, _reconcile_fwd, dmm, gmm
from .mgdt import read_tensor, write_tensor
from .params import PipelineParams, all_tensors, init_pipeline, structural_fields
from .rng import stream
from .tensor import NO_CACHE, _require_shape, as_feature_map, vjp


@dataclass
class RunResult:
    stage: str
    output: np.ndarray
    out_path: str
    summary_path: str
    elapsed_s: float


def build_params(cfg: RunConfig):
    n, c1, h, w = cfg.f1_shape
    c2 = cfg.f2_shape[1]
    return init_pipeline(cfg.seed, c1, c2, h, w, k=cfg.k, heads=cfg.heads,
                         head_dim=cfg.head_dim, mona_ratio=cfg.mona_ratio,
                         mlp_ratio=cfg.mlp_ratio,
                         seff_base=cfg.seff_base_resolution,
                         pi_mode=cfg.tssa_pi_mode)


def _load_input(path, shape, seed, label):
    if path:
        t = as_feature_map(read_tensor(path), "input")
        _require_shape(tuple(shape), t.shape, "input")
        return t
    return stream(seed, label).uniform(shape, -1.0, 1.0)


def load_inputs(cfg: RunConfig):
    f1 = _load_input(cfg.f1_path, cfg.f1_shape, cfg.seed, "input.f1")
    f2 = _load_input(cfg.f2_path, cfg.f2_shape, cfg.seed, "input.f2")
    return f1, f2


def _chain(f1, f2, p: PipelineParams, stage, cache):
    """The pipeline on sub-caches, cut at the stage; f2 is reconciled once.
    gmm's output goes inline into dmm, which drops it after its last read:
    on CPython 3.11 and later a call's arguments move into the callee's
    frame, so without a cache the map is freed before ftssa runs (under
    3.10 this frame holds it until dmm returns)."""
    x2 = _reconcile_fwd(f2, f1.shape, p.agg, cache.sub("x2"))
    f_agg = f1 + x2
    if stage == "gmm":
        return gmm(f_agg, p.gmm, cache=cache.sub("gmm"))
    f_hat = dmm(gmm(f_agg, p.gmm, cache=cache.sub("gmm")), p.dmm,
                cache=cache.sub("dmm"))
    if stage in ("dmm", "gdim"):
        return f_hat
    amap = dpam(f_agg, f_hat, p.dpam, cache=cache.sub("dpam"))
    if stage == "dpam":
        return amap
    return mgdfis_fuse(amap, f_hat, f1, x2, p.fusion, p.agg,
                       cache=cache.sub("fuse"))


def full(f1, f2, p: PipelineParams, *, cache=NO_CACHE):
    """mgdfis_fuse(dpam(aggregate, gdim), gdim, f1, f2): the whole pipeline."""
    return _chain(as_feature_map(f1, "full"), as_feature_map(f2, "full"), p,
                  "full", cache)


def _full_bwd(cache, p: PipelineParams, gy):
    """(g_f1, g_f2, g_p).  fuse gets its inputs at its own dims, so the
    aggregate gradient it returns is zero."""
    g_amap, g_hat, g_x1, g_x2, g_fusion, _ = _fuse_bwd(cache.pop("fuse"),
                                                       p.fusion, p.agg, gy)
    g_f_agg, g_hat2, g_dpam = _dpam_bwd(cache.pop("dpam"), p.dpam, g_amap)
    g_f_gmm, g_dmm = _dmm_bwd(cache.pop("dmm"), p.dmm, g_hat + g_hat2)
    g_gmm_in, g_gmm = _gmm_bwd(cache.pop("gmm"), p.gmm, g_f_gmm)
    g_f_agg += g_gmm_in
    g_f2, g_agg = _reconcile_bwd(cache.pop("x2"), p.agg, g_x2 + g_f_agg)
    return g_x1 + g_f_agg, g_f2, PipelineParams(
        agg=g_agg, gmm=g_gmm, dmm=g_dmm, dpam=g_dpam, fusion=g_fusion)


full_vjp = vjp(full, _full_bwd, inputs=2)


def _stage_value(cfg, params, f1, f2):
    if cfg.stage == "ftssa":
        return ftssa(f1, params.dmm.ftssa)
    return _chain(f1, f2, params, cfg.stage, NO_CACHE)


def _thread_count():
    """MGDFIS_THREADS as an integer; unset or empty means serial."""
    raw = os.environ.get("MGDFIS_THREADS", "").strip() or "1"
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"MGDFIS_THREADS must be an integer, got '{raw}'") from None


def execute_stage(cfg, params, f1, f2, threads):
    """Evaluate the selected stage one batch item per call, serially or on a
    thread pool of at most `threads` workers.  Both run the same per-item
    call, so their outputs are bit-identical: a batched GEMM would round
    differently from the per-item ones."""
    batch = f1.shape[0]

    def item(i):
        return _stage_value(cfg, params, f1[i:i + 1], f2[i:i + 1])

    if threads <= 1 or batch <= 1:
        return np.concatenate(list(map(item, range(batch))), axis=0)
    with ThreadPoolExecutor(max_workers=min(threads, batch)) as pool:
        return np.concatenate(list(pool.map(item, range(batch))), axis=0)


def _shape_str(shape):
    return "x".join(str(d) for d in shape)


def run(cfg: RunConfig):
    """Execute the configured stage and write <stage>.mgdt + summary.txt."""
    threads = _thread_count()
    params = build_params(cfg)
    f1, f2 = load_inputs(cfg)
    t0 = time.perf_counter()
    out = execute_stage(cfg, params, f1, f2, threads)
    elapsed = time.perf_counter() - t0

    os.makedirs(cfg.out_dir, exist_ok=True)
    out_path = os.path.join(cfg.out_dir, f"{cfg.stage}.mgdt")
    write_tensor(out_path, out)

    summary_path = os.path.join(cfg.out_dir, "summary.txt")
    lines = [
        f"stage = {cfg.stage}",
        f"seed = {cfg.seed}",
        f"f1_shape = {_shape_str(f1.shape)}",
        f"f2_shape = {_shape_str(f2.shape)}",
        f"output_shape = {_shape_str(out.shape)}",
        f"output_min = {float(out.min())!r}",
        f"output_max = {float(out.max())!r}",
        f"output_mean = {float(out.mean())!r}",
        f"output_file = {os.path.basename(out_path)}",
        "",
        "# timing (excluded from the determinism contract)",
        f"elapsed_seconds = {elapsed:.3f}",
    ]
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return RunResult(cfg.stage, out, out_path, summary_path, elapsed)


PRNG_NOTE = (
    "prng: splitmix64; per-tensor stream seed = mix64(run_seed XOR "
    "fnv1a64(tensor_name)); value_i = mix64(stream_seed + (i+1) * "
    "0x9E3779B97F4A7C15); doubles = (value >> 11) * 2^-53 mapped to "
    "[low, high); mix64(z): z ^= z>>30, z *= 0xBF58476D1CE4E5B9, "
    "z ^= z>>27, z *= 0x94D049BB133111EB, z ^= z>>31 (all mod 2^64)"
)


def dump_params(cfg: RunConfig):
    """Write every parameter tensor plus a manifest describing shapes,
    structural constants, and the PRNG, to <out_dir>/params/."""
    params = build_params(cfg)
    pdir = os.path.join(cfg.out_dir, "params")
    os.makedirs(pdir, exist_ok=True)
    tensors = all_tensors(params)
    for name, arr in tensors.items():
        write_tensor(os.path.join(pdir, name + ".mgdt"), arr)
    manifest = [f"seed = {cfg.seed}", PRNG_NOTE, "", "[tensors]"]
    for name, arr in tensors.items():
        manifest.append(f"{name} shape={_shape_str(arr.shape) if arr.ndim else 'scalar'}")
    manifest.append("")
    manifest.append("[constants]")
    for name, value in structural_fields(params).items():
        manifest.append(f"{name} = {value}")
    manifest_path = os.path.join(pdir, "manifest.txt")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(manifest) + "\n")
    return pdir
