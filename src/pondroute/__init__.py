"""Min-max multi-route coverage planning for gridded farm layouts."""

from .baseline import (
    DistanceMatrix,
    SolverBudget,
    TooLarge,
    exact_minmax,
    minmax_local_search,
)
from .evaluation import (
    BenchmarkReport,
    InstanceMetrics,
    InvalidSolution,
    run_benchmark,
    score,
)
from .geometry import (
    AntipodalPair,
    ConvexPolygon,
    DegenerateInput,
    Point,
    antipodal_pairs,
    collinear,
    contains,
    convex_hull,
    diameter,
    dist,
)
from .hpp import (
    ClusterAssignment,
    InvalidK,
    RepairImpossible,
    Route,
    Solution,
    estimate_spacing,
    hpp_solve,
    kmeans,
    load_solution,
    repair_clusters,
    route_cluster,
    save_solution,
    serpentine_route,
)
from .instances import (
    FarmInstance,
    FormatError,
    GenerationFailure,
    GeneratorConfig,
    ManifestEntry,
    VersionError,
    generate,
    generate_dataset,
    load,
    load_manifest,
    place_depot,
    save,
)

__version__ = "0.1.0"
