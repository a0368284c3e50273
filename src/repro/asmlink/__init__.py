"""Assembly, linking, I/O driver generation, and download modules."""

from .assembler import AssemblyError, assemble_function, assembly_work_units
from .download import (
    build_download_module,
    listing_difference,
    module_digest,
    module_listing,
    module_size_words,
)
from .encode import (
    FormatError,
    decode_module,
    encode_module,
    read_module,
    write_module,
)
from .iodriver import CellIOProfile, IODriver, build_io_driver
from .linker import LinkError, link_section, link_work_units
from .objformat import (
    AssembledFunction,
    Bundle,
    CellProgram,
    CodegenInfo,
    DownloadModule,
    MachineOp,
    ObjectFunction,
    ScheduledBlock,
)
from .parallel_assembler import ParallelAssemblyResult, assemble_parallel

__all__ = [
    "AssembledFunction",
    "AssemblyError",
    "Bundle",
    "CellIOProfile",
    "CellProgram",
    "CodegenInfo",
    "DownloadModule",
    "FormatError",
    "IODriver",
    "LinkError",
    "MachineOp",
    "ObjectFunction",
    "ParallelAssemblyResult",
    "ScheduledBlock",
    "assemble_function",
    "assemble_parallel",
    "assembly_work_units",
    "build_download_module",
    "build_io_driver",
    "decode_module",
    "encode_module",
    "link_section",
    "link_work_units",
    "listing_difference",
    "module_digest",
    "module_listing",
    "module_size_words",
    "read_module",
    "write_module",
]
