"""Shared fixtures: the paper's running example, a few small schemas, and a
job store that records what is appended to it."""

from __future__ import annotations

import json

import pytest

from repro.datamodel import DataType as T
from repro.datamodel import make_schema
from repro.jobstore import JobRecordWriter, SQLiteJobStore
from repro.lang.builder import ProgramBuilder, delete, eq, insert, select


class RecordingStore(JobRecordWriter):
    """A SQLite job store that also keeps every appended record, in order.

    The store folds records at write time and keeps only each job's latest
    standing and lease; tests that assert on the transition history (every
    grant, every lifecycle step, ``degraded`` annotations) read
    :attr:`records` instead.  Pass it as ``job_store=`` or ``lease_log=``.
    """

    def __init__(self, path):
        self.store = SQLiteJobStore(path, fsync=False)
        self.records: list[dict] = []

    def append(self, record: dict) -> None:
        self.records.append(json.loads(json.dumps(record)))
        self.store.append(record)

    def __getattr__(self, name):
        return getattr(self.store, name)


@pytest.fixture
def recording_store(tmp_path):
    store = RecordingStore(tmp_path / "recorded.sqlite")
    yield store
    store.close()


@pytest.fixture(scope="session")
def course_source_schema():
    """Source schema of the paper's running example (Section 2)."""
    return make_schema(
        "course_src",
        {
            "Class": {"ClassId": T.INT, "InstId": T.INT, "TaId": T.INT},
            "Instructor": {"InstId": T.INT, "IName": T.STRING, "IPic": T.BINARY},
            "TA": {"TaId": T.INT, "TName": T.STRING, "TPic": T.BINARY},
        },
    )


@pytest.fixture(scope="session")
def course_target_schema():
    """Target schema of the running example: pictures split into their own table."""
    return make_schema(
        "course_tgt",
        {
            "Class": {"ClassId": T.INT, "InstId": T.INT, "TaId": T.INT},
            "Instructor": {"InstId": T.INT, "IName": T.STRING, "PicId": T.INT},
            "TA": {"TaId": T.INT, "TName": T.STRING, "PicId": T.INT},
            "Picture": {"PicId": T.INT, "Pic": T.BINARY},
        },
    )


@pytest.fixture(scope="session")
def course_program(course_source_schema):
    """The Figure 2 program of the paper."""
    pb = ProgramBuilder("course", course_source_schema)
    pb.update(
        "addInstructor",
        [("id", "int"), ("name", "str"), ("pic", "binary")],
        insert("Instructor", {"Instructor.InstId": "$id", "Instructor.IName": "$name",
                              "Instructor.IPic": "$pic"}),
    )
    pb.update("deleteInstructor", [("id", "int")],
              delete("Instructor", "Instructor", eq("Instructor.InstId", "$id")))
    pb.query("getInstructorInfo", [("id", "int")],
             select(["Instructor.IName", "Instructor.IPic"], "Instructor",
                    eq("Instructor.InstId", "$id")))
    pb.update(
        "addTA",
        [("id", "int"), ("name", "str"), ("pic", "binary")],
        insert("TA", {"TA.TaId": "$id", "TA.TName": "$name", "TA.TPic": "$pic"}),
    )
    pb.update("deleteTA", [("id", "int")],
              delete("TA", "TA", eq("TA.TaId", "$id")))
    pb.query("getTAInfo", [("id", "int")],
             select(["TA.TName", "TA.TPic"], "TA", eq("TA.TaId", "$id")))
    return pb.build()


@pytest.fixture(scope="session")
def people_schema():
    """A tiny single-table schema used by many unit tests."""
    return make_schema(
        "people",
        {"Person": {"PersonId": T.INT, "Name": T.STRING, "Age": T.INT}},
    )


@pytest.fixture(scope="session")
def people_program(people_schema):
    pb = ProgramBuilder("people_prog", people_schema)
    pb.update("addPerson", [("id", "int"), ("name", "str"), ("age", "int")],
              insert("Person", {"Person.PersonId": "$id", "Person.Name": "$name",
                                "Person.Age": "$age"}))
    pb.update("deletePerson", [("id", "int")],
              delete("Person", "Person", eq("Person.PersonId", "$id")))
    pb.query("getPerson", [("id", "int")],
             select(["Person.Name", "Person.Age"], "Person", eq("Person.PersonId", "$id")))
    pb.query("findByName", [("name", "str")],
             select(["Person.PersonId"], "Person", eq("Person.Name", "$name")))
    return pb.build()
