"""Run configuration: flat key = value text with '#' comments.

Unknown keys are rejected so typos fail loudly.  Shapes are written as
'x'-separated dims, e.g. f1_shape = 1x64x80x80.
"""

from dataclasses import dataclass, fields, replace

from .errors import ConfigError

STAGES = ("ftssa", "gmm", "dmm", "gdim", "dpam", "full")
PI_MODES = ("constant", "distribution")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 1
    f1_shape: tuple = (1, 64, 80, 80)
    f2_shape: tuple = (1, 64, 40, 40)
    f1_path: str = ""            # optional MGDT file; empty = generate from seed
    f2_path: str = ""
    k: int = 2
    heads: int = 4
    head_dim: int = 16
    mona_ratio: int = 4
    mlp_ratio: int = 4
    seff_base_resolution: int = 8
    stage: str = "full"
    tssa_pi_mode: str = "constant"
    out_dir: str = "out"

    def validate(self):
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError(f"seed {self.seed} outside unsigned 64-bit range")
        for name in _SHAPE_KEYS:
            shape = getattr(self, name)
            if len(shape) != 4 or any(d < 1 for d in shape):
                raise ConfigError(f"{name} must be 4 dims, each >= 1, got {shape}")
        for name in _INT_KEYS:
            if name != "seed" and getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.stage not in STAGES:
            raise ConfigError(f"stage must be one of {', '.join(STAGES)}, "
                              f"got '{self.stage}'")
        if self.tssa_pi_mode not in PI_MODES:
            raise ConfigError(f"tssa_pi_mode must be one of {', '.join(PI_MODES)}, "
                              f"got '{self.tssa_pi_mode}'")
        if self.f1_shape[0] != self.f2_shape[0]:
            raise ConfigError(f"f1_shape and f2_shape must share the batch size, "
                              f"got {self.f1_shape[0]} and {self.f2_shape[0]}")
        if self.f1_shape[1] % self.k:
            raise ConfigError(f"k {self.k} must divide the f1 channel count "
                              f"{self.f1_shape[1]}")
        return self


def _parse_shape(text, key, lineno):
    try:
        dims = tuple(int(part) for part in text.split("x"))
    except ValueError:
        raise ConfigError(f"line {lineno}: {key} expects dims like 1x64x80x80, "
                          f"got '{text}'") from None
    return dims


def _keys(kind):
    """RunConfig's fields annotated `kind`, in declaration order."""
    return tuple(f.name for f in fields(RunConfig) if f.type is kind)


_INT_KEYS = _keys(int)
_SHAPE_KEYS = _keys(tuple)
_STR_KEYS = _keys(str)


def parse_config(text):
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got '{line}'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        if key in _INT_KEYS:
            try:
                seen[key] = int(value)
            except ValueError:
                raise ConfigError(f"line {lineno}: {key} expects an integer, "
                                  f"got '{value}'") from None
        elif key in _SHAPE_KEYS:
            seen[key] = _parse_shape(value, key, lineno)
        elif key in _STR_KEYS:
            seen[key] = value
        else:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
    return RunConfig(**seen).validate()


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text)


def apply_overrides(cfg, seed=None, stage=None, out_dir=None):
    updates = {}
    if seed is not None:
        updates["seed"] = seed
    if stage is not None:
        updates["stage"] = stage
    if out_dir is not None:
        updates["out_dir"] = out_dir
    return replace(cfg, **updates).validate() if updates else cfg
