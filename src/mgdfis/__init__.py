"""Feature-fusion kernel library: token-statistics attention, column/row
channel mixing, directional detail capture, pixel attention, and the final
weighted fusion, all as pure float64 tensor ops with hand-written backward
passes.

The stage ops live in their submodules (`mgdfis.ftssa`, `mgdfis.gdim`,
`mgdfis.dpam`) and are not re-exported here: functions named `ftssa`, `gdim`
and `dpam` would shadow those submodules on the package."""

from .config import RunConfig, load_config, parse_config
from .errors import ConfigError, MgdfisError, ShapeError, TensorFormatError
from .gradcheck import GradReport, grad_check
from .mgdt import read_tensor, write_tensor
from .ops import (ConvSpec, activation, bilinear_resize, conv2d, conv2d_vjp,
                  gelu, global_avg_pool, linear, same_padding, same_spec,
                  sigmoid, silu, softmax)
from .params import (AggregateParams, DmmParams, DpamParams, DyTParams,
                     FtssaParams, FusionWeights, GmmParams, MonaParams,
                     PipelineParams, SeffParams, TssaParams, init_pipeline,
                     param_leaves)

__version__ = "0.1.0"
