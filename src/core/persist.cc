#include "core/persist.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/catalog.h"
#include "core/table.h"

namespace mammoth {

namespace {

constexpr uint64_t kMagic = 0x3130544142424Dull;  // "MBBAT01"
constexpr size_t kHeaderSize = 64;

struct BatHeader {
  uint64_t magic;
  uint8_t type;
  uint8_t flags;  // bit0 sorted, bit1 revsorted, bit2 key
  uint8_t pad[6];
  uint64_t hseqbase;
  uint64_t count;
  uint64_t heap_bytes;
};
static_assert(sizeof(BatHeader) <= kHeaderSize);

}  // namespace

Result<std::shared_ptr<MappedFile>> MappedFile::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOError("open " + path + ": " + std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError("fstat " + path);
  }
  const size_t size = static_cast<size_t>(st.st_size);
  void* addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (addr == MAP_FAILED) {
    return Status::IOError("mmap " + path + ": " + std::strerror(errno));
  }
  return std::shared_ptr<MappedFile>(
      new MappedFile(static_cast<uint8_t*>(addr), size));
}

MappedFile::~MappedFile() {
  if (data_ != nullptr) ::munmap(data_, size_);
}

Status SaveBat(const Bat& b, const std::string& path) {
  BatPtr materialized;
  const Bat* src = &b;
  if (b.IsDenseTail()) {
    materialized = b.Clone();
    materialized->MaterializeDense();
    src = materialized.get();
  }

  BatHeader hdr{};
  hdr.magic = kMagic;
  hdr.type = static_cast<uint8_t>(src->type());
  hdr.flags = (src->props().sorted ? 1 : 0) |
              (src->props().revsorted ? 2 : 0) | (src->props().key ? 4 : 0);
  hdr.hseqbase = src->hseqbase();
  hdr.count = src->Count();
  hdr.heap_bytes =
      src->type() == PhysType::kStr ? src->heap()->ByteSize() : 0;

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot create " + path);
  uint8_t header_block[kHeaderSize] = {};
  std::memcpy(header_block, &hdr, sizeof(hdr));
  bool ok = std::fwrite(header_block, 1, kHeaderSize, f) == kHeaderSize;
  const size_t payload = src->Count() * TypeWidth(src->type());
  if (ok && payload > 0) {
    ok = std::fwrite(src->tail().raw_data(), 1, payload, f) == payload;
  }
  if (ok && hdr.heap_bytes > 0) {
    ok = std::fwrite(src->heap()->RawBytes(), 1, hdr.heap_bytes, f) ==
         hdr.heap_bytes;
  }
  ok = (std::fclose(f) == 0) && ok;
  if (!ok) return Status::IOError("short write to " + path);
  return Status::OK();
}

namespace {

Result<BatHeader> ReadHeader(const MappedFile& mf, const std::string& path) {
  if (mf.size() < kHeaderSize) return Status::IOError(path + ": truncated");
  BatHeader hdr;
  std::memcpy(&hdr, mf.data(), sizeof(hdr));
  if (hdr.magic != kMagic) return Status::IOError(path + ": bad magic");
  if (hdr.type > static_cast<uint8_t>(PhysType::kStr)) {
    return Status::IOError(path + ": bad type tag");
  }
  const PhysType type = static_cast<PhysType>(hdr.type);
  const size_t need =
      kHeaderSize + hdr.count * TypeWidth(type) + hdr.heap_bytes;
  if (mf.size() < need) return Status::IOError(path + ": truncated payload");
  return hdr;
}

void ApplyFlags(const BatHeader& hdr, Bat* b) {
  b->set_hseqbase(hdr.hseqbase);
  b->mutable_props().sorted = (hdr.flags & 1) != 0;
  b->mutable_props().revsorted = (hdr.flags & 2) != 0;
  b->mutable_props().key = (hdr.flags & 4) != 0;
}

}  // namespace

Result<BatPtr> LoadBat(const std::string& path) {
  MAMMOTH_ASSIGN_OR_RETURN(std::shared_ptr<MappedFile> mf,
                           MappedFile::Open(path));
  MAMMOTH_ASSIGN_OR_RETURN(BatHeader hdr, ReadHeader(*mf, path));
  const PhysType type = static_cast<PhysType>(hdr.type);
  const uint8_t* payload = mf->data() + kHeaderSize;

  BatPtr b;
  if (type == PhysType::kStr) {
    b = Bat::NewString(nullptr);
    b->heap()->Restore(
        reinterpret_cast<const char*>(payload + hdr.count * TypeWidth(type)),
        hdr.heap_bytes);
  } else {
    b = Bat::New(type);
  }
  b->AppendRaw(payload, hdr.count);
  ApplyFlags(hdr, b.get());
  return b;
}

Result<BatPtr> MapBat(const std::string& path) {
  MAMMOTH_ASSIGN_OR_RETURN(std::shared_ptr<MappedFile> mf,
                           MappedFile::Open(path));
  MAMMOTH_ASSIGN_OR_RETURN(BatHeader hdr, ReadHeader(*mf, path));
  const PhysType type = static_cast<PhysType>(hdr.type);
  if (type == PhysType::kStr) return LoadBat(path);

  BatPtr b = Bat::New(type);
  // PROT_READ mapping: the tail is read-only; any writer path goes through
  // Column::Reserve which copies first (copy-on-write).
  b->tail().AdoptExternal(
      const_cast<uint8_t*>(mf->data() + kHeaderSize), hdr.count);
  ApplyFlags(hdr, b.get());
  b->set_keepalive(std::move(mf));
  return b;
}

namespace {

const char* TypeToken(PhysType t) { return TypeName(t); }

Result<PhysType> TypeFromToken(const std::string& token) {
  for (int i = 0; i <= static_cast<int>(PhysType::kStr); ++i) {
    const auto t = static_cast<PhysType>(i);
    if (token == TypeName(t)) return t;
  }
  return Status::IOError("unknown type token " + token);
}

/// Writes an encoded column image to its own file.
Status WriteImage(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) return Status::IOError("short write to " + path);
  return Status::OK();
}

/// Reads an encoded column image file whole.
Result<std::string> ReadImage(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  if (!in.good() && !in.eof()) return Status::IOError("read " + path);
  return std::move(buf).str();
}

}  // namespace

Status SaveTable(const Table& table, const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return Status::IOError("cannot create " + dir);

  // Snapshot + merge: persist the visible image without touching the
  // original's deltas. Compressed columns keep their compressed image
  // (MergeDeltas re-encodes only when deltas were pending).
  TablePtr snap = table.Snapshot();
  MAMMOTH_RETURN_IF_ERROR(snap->MergeDeltas());

  std::ofstream manifest(dir + "/manifest");
  if (!manifest) return Status::IOError("cannot write manifest in " + dir);
  manifest << snap->name() << "\n" << snap->schema().size() << "\n";
  for (size_t i = 0; i < snap->schema().size(); ++i) {
    const ColumnDef& def = snap->schema()[i];
    const compress::ColumnImage& image = snap->MainImage(i);
    const std::string path = dir + "/col_" + std::to_string(i);
    std::string bytes;
    if (image.comp != nullptr) {
      // Third token marks the column file as a compressed image
      // (col_<i>.cbat instead of col_<i>.mbat).
      manifest << def.name << " " << TypeToken(def.type) << " czip\n";
      image.comp->Serialize(&bytes);
      MAMMOTH_RETURN_IF_ERROR(WriteImage(path + ".cbat", bytes));
    } else if (image.sdict != nullptr) {
      // Dictionary-compressed string column: the .sdict image (sorted
      // dictionary + packed codes) replaces the offset tail + heap.
      manifest << def.name << " " << TypeToken(def.type) << " sdict\n";
      image.sdict->Serialize(&bytes);
      MAMMOTH_RETURN_IF_ERROR(WriteImage(path + ".sdict", bytes));
    } else {
      manifest << def.name << " " << TypeToken(def.type) << "\n";
      MAMMOTH_RETURN_IF_ERROR(SaveBat(*image.bat, path + ".mbat"));
    }
  }
  if (snap->compression_enabled()) manifest << "compressed\n";
  manifest.flush();
  if (!manifest) return Status::IOError("short manifest write in " + dir);
  return Status::OK();
}

Result<TablePtr> LoadTable(const std::string& dir, bool use_mmap) {
  std::ifstream manifest(dir + "/manifest");
  if (!manifest) return Status::IOError("no manifest in " + dir);
  std::string name;
  size_t ncols = 0;
  if (!std::getline(manifest, name) || !(manifest >> ncols) || ncols == 0) {
    return Status::IOError("bad manifest in " + dir);
  }
  std::vector<ColumnDef> schema;
  std::vector<compress::ColumnImage> images;
  for (size_t i = 0; i < ncols; ++i) {
    ColumnDef def;
    std::string type_token;
    if (!(manifest >> def.name >> type_token)) {
      return Status::IOError("truncated manifest in " + dir);
    }
    MAMMOTH_ASSIGN_OR_RETURN(def.type, TypeFromToken(type_token));
    // Optional per-column flags occupy the rest of the line.
    std::string rest;
    std::getline(manifest, rest);
    const bool compressed = rest.find("czip") != std::string::npos;
    const bool dict = rest.find("sdict") != std::string::npos;
    const std::string path = dir + "/col_" + std::to_string(i);
    compress::ColumnImage col;
    if (compressed) {
      MAMMOTH_ASSIGN_OR_RETURN(std::string image, ReadImage(path + ".cbat"));
      MAMMOTH_ASSIGN_OR_RETURN(compress::CompressedBat cb,
                               compress::CompressedBat::Deserialize(image));
      col.comp =
          std::make_shared<const compress::CompressedBat>(std::move(cb));
    } else if (dict) {
      MAMMOTH_ASSIGN_OR_RETURN(std::string image, ReadImage(path + ".sdict"));
      MAMMOTH_ASSIGN_OR_RETURN(compress::StrDict sd,
                               compress::StrDict::Deserialize(image));
      col.sdict = std::make_shared<const compress::StrDict>(std::move(sd));
    } else if (use_mmap) {
      MAMMOTH_ASSIGN_OR_RETURN(col.bat, MapBat(path + ".mbat"));
    } else {
      MAMMOTH_ASSIGN_OR_RETURN(col.bat, LoadBat(path + ".mbat"));
    }
    schema.push_back(std::move(def));
    images.push_back(std::move(col));
  }
  std::string policy_token;
  const bool policy = (manifest >> policy_token) && policy_token == "compressed";
  return Table::FromStorage(std::move(name), std::move(schema),
                            std::move(images), policy);
}

Status SaveCatalog(const Catalog& catalog, const std::string& dir) {
  for (const std::string& name : catalog.TableNames()) {
    MAMMOTH_ASSIGN_OR_RETURN(TablePtr t, catalog.Get(name));
    MAMMOTH_RETURN_IF_ERROR(SaveTable(*t, dir + "/" + name));
  }
  return Status::OK();
}

Result<std::shared_ptr<Catalog>> LoadCatalog(const std::string& dir,
                                             bool use_mmap) {
  namespace fs = std::filesystem;
  auto catalog = std::make_shared<Catalog>();
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) return Status::IOError("cannot read " + dir);
  for (const auto& entry : it) {
    if (!entry.is_directory()) continue;
    MAMMOTH_ASSIGN_OR_RETURN(TablePtr t,
                             LoadTable(entry.path().string(), use_mmap));
    MAMMOTH_RETURN_IF_ERROR(catalog->Register(std::move(t)));
  }
  return catalog;
}

namespace {

Status SyncFd(const std::string& path, int flags) {
  const int fd = ::open(path.c_str(), flags);
  if (fd < 0) {
    return Status::IOError("open for fsync " + path + ": " +
                           std::strerror(errno));
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Status::IOError("fsync " + path + ": " + std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace

Status SyncFile(const std::string& path) { return SyncFd(path, O_RDONLY); }

Status SyncDir(const std::string& dir) {
  return SyncFd(dir, O_RDONLY | O_DIRECTORY);
}

Status SyncTree(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) {
      MAMMOTH_RETURN_IF_ERROR(SyncFile(it->path().string()));
    } else if (it->is_directory(ec)) {
      MAMMOTH_RETURN_IF_ERROR(SyncDir(it->path().string()));
    }
  }
  if (ec) return Status::IOError("walk " + dir + ": " + ec.message());
  return SyncDir(dir);
}

}  // namespace mammoth
