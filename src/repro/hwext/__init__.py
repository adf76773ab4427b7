"""§6 hardware suggestions, modelled so §7.2.4 can quantify them.

§6 proposes a dedicated pattern-matching packet decoder, multi-CR3
filtering, in-hardware simple CFI policies and extra check triggers.
:class:`HardwareExtensionModel` projects a measured overhead breakdown
with the first three enabled, by scaling the decode, trace and check
slices; ``repro experiments hwext`` reports the projection.
"""

from repro.hwext.model import HardwareExtensionModel

__all__ = ["HardwareExtensionModel"]
