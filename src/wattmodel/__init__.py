"""Server power modeling: fit, predict, integrate, and cost out.

Fits Power = alpha + b_cpu*CPU + b_mem*Memory + b_disk*Disk + b_net*Network
to paired utilization/power-meter traces, evaluates prediction accuracy,
integrates watts into kWh, and projects multi-year cost under an
escalating tariff. A synthetic trace generator with a portable seeded RNG
closes the loop for testing.
"""

from .energy import *
from .powermodel import *
from .regression import *
from .simgen import *
from .tariff import *
from .trace import *
from . import energy, powermodel, regression, simgen, tariff, trace

__version__ = "0.1.0"

__all__: list[str] = []
__all__ += energy.__all__
__all__ += powermodel.__all__
__all__ += regression.__all__
__all__ += simgen.__all__
__all__ += tariff.__all__
__all__ += trace.__all__
