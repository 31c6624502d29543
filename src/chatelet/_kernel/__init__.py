"""Hot loops kept apart from the mathematical layers: the fiber scan in
:mod:`chatelet._kernel.pure`."""
