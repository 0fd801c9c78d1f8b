"""Min-max multi-route coverage planning for gridded farm layouts."""

from .baseline import (
    TooLarge,
    exact_minmax,
    minmax_local_search,
)
from .evaluation import (
    InstanceMetrics,
    InvalidSolution,
    run_benchmark,
    score,
)
from .geometry import (
    ConvexPolygon,
    DegenerateInput,
    Point,
    antipodal_pairs,
    contains,
    convex_hull,
)
from .hpp import (
    ClusterAssignment,
    RepairImpossible,
    hpp_solve,
    kmeans,
    serpentine_route,
)
from .instances import (
    FarmInstance,
    FormatError,
    GenerationFailure,
    ManifestEntry,
    VersionError,
    generate,
    generate_dataset,
    load,
    load_manifest,
    save,
)
from .solution import InvalidK, Route, Solution, load_solution, save_solution

__version__ = "0.1.0"
