import sys

from .cli import process_main

if __name__ == "__main__":
    sys.exit(process_main())
